package replication

import (
	"fmt"
	"slices"

	"repro/internal/hypervisor"
	"repro/internal/netsim"
	"repro/internal/obs"
	"repro/internal/sim"
)

// epochArchive retains, per epoch, exactly what was delivered at its
// boundary. A promoted backup uses it to bring lower-priority backups
// onto its stream (syncMsg). Bounded: entries older than windowEpochs
// are pruned — a lagging backup further behind than the window cannot be
// resynchronized (it detects this and withdraws).
//
// The entries live in a ring indexed by epoch, and the archive owns their
// interrupt lists: record copies a delivery into a list recycled from a
// pruned entry, so a coordinator's steady state archives without
// allocating, and since hands out copies of its own.
type epochArchive struct {
	// ring holds epoch e at ring[e % len(ring)] for every recorded e in
	// [oldest, newest]; the span never exceeds len(ring), which doubles
	// when it would.
	ring   []archived
	n      int // entries held
	oldest uint64
	newest uint64
	window uint64
	free   [][]hypervisor.Interrupt // lists of pruned entries, cleared
}

// archived is one ring slot.
type archived struct {
	SyncEpoch
	held bool
}

const defaultArchiveWindow = 4096

// archiveResyncKeep is how many fully-acknowledged epochs a coordinator
// retains beyond the hard window. An epoch every live peer has
// acknowledged end-to-end can never need replaying (FIFO channels: the
// ack proves the peer holds everything for it), so the archive stays at
// this depth in steady state instead of growing to the window.
const archiveResyncKeep = 8

func newEpochArchive() *epochArchive {
	return &epochArchive{window: defaultArchiveWindow}
}

// slot is epoch e's place in the ring.
func (a *epochArchive) slot(e uint64) *archived { return &a.ring[e%uint64(len(a.ring))] }

// record stores one epoch's delivery history, copying e.Ints. An epoch
// the window has already passed is not kept.
func (a *epochArchive) record(e SyncEpoch) {
	if a == nil {
		return
	}
	if a.n == 0 {
		a.oldest, a.newest = e.Epoch, e.Epoch
	} else {
		if e.Epoch+a.window <= a.newest {
			return
		}
		a.newest = max(a.newest, e.Epoch)
		for a.oldest+a.window <= a.newest {
			a.drop(a.oldest)
			a.oldest++
		}
		a.oldest = min(a.oldest, e.Epoch)
	}
	a.fit()
	s := a.slot(e.Epoch)
	if s.held {
		a.recycle(s.Ints)
	} else {
		a.n++
	}
	if len(e.Ints) > 0 {
		var l []hypervisor.Interrupt
		if n := len(a.free); n > 0 {
			l, a.free = a.free[n-1], a.free[:n-1]
		}
		e.Ints = append(l, e.Ints...)
	} else {
		e.Ints = nil
	}
	*s = archived{SyncEpoch: e, held: true}
}

// fit doubles the ring until it holds the span [oldest, newest].
func (a *epochArchive) fit() {
	span := a.newest - a.oldest + 1
	if span <= uint64(len(a.ring)) {
		return
	}
	size := max(uint64(len(a.ring)), 8)
	for size < span {
		size *= 2
	}
	old := a.ring
	a.ring = make([]archived, size)
	for _, s := range old {
		if s.held {
			*a.slot(s.Epoch) = s
		}
	}
}

// drop removes epoch e's entry, keeping its list for a later record.
func (a *epochArchive) drop(e uint64) {
	if s := a.slot(e); s.held {
		a.recycle(s.Ints)
		*s = archived{}
		a.n--
	}
}

// recycle clears a list the archive owned (its records must not pin
// completion payloads) and keeps it for reuse.
func (a *epochArchive) recycle(l []hypervisor.Interrupt) {
	if cap(l) > 0 {
		clear(l)
		a.free = append(a.free, l[:0])
	}
}

// trim drops every entry older than keepFrom (acknowledged history).
func (a *epochArchive) trim(keepFrom uint64) {
	if a == nil || a.n == 0 {
		return
	}
	if keepFrom > a.newest+1 {
		keepFrom = a.newest + 1
	}
	for a.oldest < keepFrom {
		a.drop(a.oldest)
		a.oldest++
	}
}

// len reports how many epochs are retained (tests).
func (a *epochArchive) len() int { return a.n }

// each calls fn on every archived epoch >= from, in order.
func (a *epochArchive) each(from uint64, fn func(SyncEpoch)) {
	if a.n == 0 {
		return
	}
	for e := max(from, a.oldest); e <= a.newest; e++ {
		if s := a.slot(e); s.held {
			fn(s.SyncEpoch)
		}
	}
}

// since returns copies of the archived epochs >= from, in order: the
// resync message carrying them outlives the archive's own lists.
func (a *epochArchive) since(from uint64) []SyncEpoch {
	var out []SyncEpoch
	a.each(from, func(se SyncEpoch) {
		se.Ints = slices.Clone(se.Ints)
		out = append(out, se)
	})
	return out
}

// coordinator runs the primary side of the protocol — rules P1 and P2,
// the §4.3 revision, or the output-commit window, as its policy says —
// against a hypervisor, fanning epoch frames out to a set of backups
// through a sender. It is the second half of Replica.Run: what a replica
// does once nobody is upstream of it.
type coordinator struct {
	hv      *hypervisor.Hypervisor
	s       *sender
	pol     policy
	stats   *Stats
	stopped func() bool
	archive *epochArchive
	// rep is the owning replica: its index names the commits and releases
	// this coordinator reports to its Observer, and its joinBarrier holds
	// the coordinator at each epoch boundary.
	rep *Replica
	k   *sim.Kernel

	intIndex uint32 // capture index within the current epoch

	// pend is the one list of shipped epochs awaiting acknowledgement:
	// (epoch, sequence number of the frame carrying its End), oldest
	// first. FIFO links: acking the End implies holding everything
	// before it. advance pops its acknowledged prefix.
	pend []pendingEpoch
	// released/haveReleased is the output-release watermark stamped
	// into every End: environment output through that epoch has been
	// emitted. The lock-step gates emit output as the guest generates
	// it, so there the watermark is simply the epoch being closed;
	// under the release gate it trails, moved by acknowledgements.
	released     uint64
	haveReleased bool

	pool *netsim.FramePool[epochHead, hypervisor.Interrupt]
	// progress is broadcast whenever a wait's condition may have changed:
	// on every acknowledgement and after every transmit.
	progress *sim.Signal
	// txq/txSig/txClose drive the transmit process (txLoop) of a
	// coalescing coordinator: stamped frames awaiting fan-out, its
	// wakeup signal, and the end-of-run close flag. Not captured by
	// snapshots — restore replays the run deterministically, which
	// reproduces the queue.
	txq     []*epochFrame
	txSig   *sim.Signal
	txClose bool
	bpool   *netsim.FramePool[struct{}, *epochFrame]
}

type pendingEpoch struct {
	epoch, seq uint64
}

// newCoordinator builds the coordinator r runs once nobody is upstream of
// it — at construction on node 0, at promotion elsewhere — over r's
// downstream channels, counters, archive and observer.
func (r *Replica) newCoordinator() *coordinator {
	c := &coordinator{
		hv: r.HV, s: newSender(r.downs, &r.Stats), stats: &r.Stats,
		pol:     derivePolicy(r.cfg.Protocol, r.cfg.OutputCommit),
		stopped: r.Failed, archive: r.archive, rep: r,
		pool: &netsim.FramePool[epochHead, hypervisor.Interrupt]{},
	}
	c.s.peerTimeout = r.cfg.PeerTimeout
	return c
}

// outputReleased reports whether the release watermark covers every
// shipped epoch: no environment output is waiting on an acknowledgement.
// Always true at the lock-step gates.
func (c *coordinator) outputReleased() bool {
	n := len(c.pend)
	return n == 0 || (c.haveReleased && c.released >= c.pend[n-1].epoch)
}

// drained reports whether every epoch the coordinator has committed is
// provably replicated: nothing queued for transmit and no output
// awaiting release. Inline shipping at a lock-step gate is drained at
// every boundary — the frames are on the wire, and a failstop does not
// reach out and destroy them.
func (c *coordinator) drained() bool { return len(c.txq) == 0 && c.outputReleased() }

func (c *coordinator) windowOpen() bool {
	return c.pol.window == 0 || len(c.pend) < c.pol.window
}

// install hooks the coordinator into the hypervisor. Call once, with the
// driving process, before run.
func (c *coordinator) install(p *sim.Proc) {
	hv := c.hv
	c.k = p.Kernel()
	c.progress = c.k.NewSignal("repl.progress")
	for _, ps := range c.s.peers {
		c.wire(ps)
	}
	hv.OnCapture, hv.OnBeforeIO = nil, nil
	if c.pol.coalesce {
		// Interrupts ride the epoch frame; a transmit process ships it.
		c.txSig = c.k.NewSignal("repl.tx")
		c.bpool = &netsim.FramePool[struct{}, *epochFrame]{}
		c.k.Spawn(fmt.Sprintf("oc-tx%d", c.rep.index), c.txLoop)
	} else {
		// P1: forward every captured interrupt immediately.
		hv.OnCapture = func(i hypervisor.Interrupt) {
			if c.stopped() {
				return
			}
			c.stats.IntsForwarded++
			f := c.pool.Get()
			f.Head = epochHead{Epoch: hv.Epoch(), IntIndex: c.intIndex}
			addRec(f, i)
			c.ship(p, f)
			c.intIndex++
		}
	}
	switch c.pol.gate {
	case gateOutput:
		hv.OnBeforeIO = func() {
			if c.stopped() {
				return
			}
			start := p.Now()
			c.stats.IOGateWaits++
			c.wait(p, c.s.fullyAcked) // the §4.3 gate
			c.stats.IOGateWaitTime += p.Now() - start
		}
	case gateRelease:
		hv.SetOutputDeferral(p.Now)
	}
	hv.Stop = c.stopped
	hv.SetIOActive(true)
}

// wire attaches a peer's acknowledgement channel to the coordinator: the
// one ack intake. It runs in simulation-event context (no blocking):
// update the watermark, then advance whatever it commits.
func (c *coordinator) wire(ps *peerState) {
	ps.peer.RX.OnDeliver = func(raw netsim.Message) {
		a, ok := raw.Payload.(*ack)
		if !ok {
			return
		}
		seq := a.Head
		a.Release()
		c.s.acknowledge(ps, seq)
		// A failstopped coordinator must not emit: an acknowledgement
		// already in flight when the processor stopped still arrives
		// (links deliver what was sent), but releasing output for it
		// would be a zombie interaction with the environment.
		if !c.stopped() {
			c.advance()
		}
		c.progress.Broadcast()
	}
}

// attachPeer splices a late joiner into the fan-out. It joins fully
// acknowledged: nothing sent before it existed can be outstanding toward
// it, so no wait may block on history the joiner never received.
func (c *coordinator) attachPeer(p Peer) {
	ps := &peerState{peer: p, acked: c.s.seq}
	c.s.peers = append(c.s.peers, ps)
	if c.k != nil {
		c.wire(ps)
	}
}

// ship stamps a frame with the next sequence number and sends it: from
// the coordinator's own process, sleeping the per-peer controller set-up
// cost, or — coalescing — by handing it to the transmit process and NOT
// sleeping, the way a DMA-capable controller works a queue while the CPU
// runs on. Sequence numbers are assigned in ship order and the single
// transmit process preserves it, so the FIFO acknowledgement watermark
// means the same either way.
func (c *coordinator) ship(p *sim.Proc, f *epochFrame) {
	if len(c.s.peers) == 0 {
		f.Retain(1)
		f.Release()
		return
	}
	c.s.seq++
	f.Head.Seq = c.s.seq
	if c.pol.coalesce {
		c.txq = append(c.txq, f)
		c.txSig.Broadcast()
		return
	}
	c.transmit(p, f)
}

// transmit fans one stamped frame out: one reference per receiver plus
// the sender's own.
func (c *coordinator) transmit(p *sim.Proc, f *epochFrame) {
	f.Retain(c.s.receivers() + 1)
	c.s.fanout(p, f, f.Size, c.stopped)
	f.Release()
}

// txLoop is a coalescing coordinator's transmit process: it drains the
// frame queue in FIFO order, paying the per-peer controller set-up cost
// off the guest's critical path. A backlog — several frames queued while
// one was on the controller — goes out as ONE batch message. It exits on
// coordinator failstop (queued frames die with the processor, exactly as
// writes a failstopped CPU never posted to its controller) or once the
// queue is drained after run closes it. It is a RunSteps body: a step
// ends at each set-up sleep and at each wait for a frame, so the kernel
// runs it inline and shipping a frame costs no switch.
func (c *coordinator) txLoop(p *sim.Proc) {
	var (
		fan  fanCursor
		held interface{ Release() } // the frame or batch being fanned out
	)
	p.RunSteps(func(*sim.Proc) (sim.Time, sim.StepStatus) {
		for {
			if held != nil {
				if d, ok := fan.next(c.stopped); ok {
					return d, sim.StepMore
				}
				held.Release()
				held = nil
				c.progress.Broadcast() // wake a join barrier watching txq drain
			}
			if c.stopped() {
				return 0, sim.StepDone
			}
			switch len(c.txq) {
			case 0:
				if c.txClose {
					return 0, sim.StepDone
				}
				return c.txSig.Await(ackTick)
			case 1:
				f := c.txq[0]
				c.txq[0] = nil
				c.txq = c.txq[:0]
				f.Retain(c.s.receivers() + 1)
				held, fan = f, c.s.cursor(f, f.Size)
			default:
				// The batch carries one reference per receiver plus the
				// sender's; each inner frame one per receiver (a receiver
				// files and releases the inner frames individually, then
				// releases the batch).
				b := c.bpool.Get()
				b.Size = 8 // batch header
				n := c.s.receivers()
				for i, f := range c.txq {
					f.Retain(n)
					b.Recs = append(b.Recs, f)
					b.Size += f.Size
					c.txq[i] = nil
				}
				c.txq = c.txq[:0]
				b.Retain(n + 1)
				held, fan = b, c.s.cursor(b, b.Size)
			}
		}
	})
}

// advance is the one step that retires acknowledged epochs: pop every
// pending epoch whose End all live peers acknowledged, release whatever
// output was deferred for it (nothing, at the lock-step gates), and trim
// the archive — an epoch every live peer holds end to end can never need
// replaying, so a healthy coordinator's archive stays a short tail
// instead of growing with the run (the window cap in record remains the
// backstop for lagging peers). Called from the acknowledgement intake
// and from the coordinator's own wait ticks and boundaries; safe in all
// of them (device output and link sends do not block).
func (c *coordinator) advance() {
	ma := c.s.minAcked()
	n := 0
	for n < len(c.pend) && c.pend[n].seq <= ma {
		n++
	}
	if n == 0 {
		return
	}
	if c.pol.gate == gateRelease {
		for i, pe := range c.pend[:n] {
			c.release(pe.epoch, len(c.pend)-i-1)
		}
	}
	if acked := c.pend[n-1].epoch; acked+1 > archiveResyncKeep {
		c.archive.trim(acked + 1 - archiveResyncKeep)
	}
	c.pend = c.pend[:copy(c.pend, c.pend[n:])]
}

// release emits the output deferred for an acknowledged epoch and moves
// the release watermark to it; occupancy is how many epochs remain in
// flight behind it.
func (c *coordinator) release(epoch uint64, occupancy int) {
	cnt, firstAt := c.hv.SettleOutput(epoch, hypervisor.ReleaseOutput)
	c.released, c.haveReleased = epoch, true
	c.stats.OutputsReleased += uint64(cnt)
	now := c.k.Now()
	var lat sim.Time
	if cnt > 0 && firstAt > 0 {
		lat = now - firstAt
	}
	c.rep.observe(obs.Event{Kind: obs.EventOutputCommitted, Time: now, Node: c.rep.index, Epoch: epoch,
		Outputs: cnt, CommitLatency: lat, Occupancy: occupancy})
}

// ackTick is how long a wait sleeps between liveness checks.
const ackTick = 10 * sim.Millisecond

// wait is the one wait-with-liveness primitive: block until cond — a
// predicate over acknowledgements, the pending list and the transmit
// queue — holds, waking on progress and ticking the liveness detector
// through silences (peers may have died, or their links gone down — both
// advance minAcked by exclusion). Returns false if the coordinator
// stopped while waiting.
func (c *coordinator) wait(p *sim.Proc, cond func() bool) bool {
	if cond() {
		return true
	}
	start := p.Now()
	c.stats.AckWaits++
	for !cond() && !c.stopped() {
		if !p.WaitTimeout(c.progress, ackTick) {
			c.s.checkLiveness(p.Now())
			c.advance()
		}
	}
	c.stats.AckWaitTime += p.Now() - start
	return !c.stopped()
}

// run executes epochs until the guest halts or the coordinator is
// stopped. tme0 is the clock base for the first epoch it runs.
func (c *coordinator) run(p *sim.Proc, tme0 uint32) {
	hv := c.hv
	hv.SetTODBase(tme0)
	for !hv.Halted() && !c.stopped() {
		if !c.wait(p, c.windowOpen) {
			return
		}
		b := hv.RunEpoch(p)
		if c.stopped() {
			return
		}
		c.stats.Epochs++

		// --- Rule P2 ---
		tme := b.TOD
		f := c.pool.Get()
		f.Head = epochHead{Epoch: b.Epoch, HasTme: true, Tme: tme}
		if c.pol.coalesce {
			// The interrupt records are snapshotted BEFORE timer
			// synthesis: backups compute timer interrupts from Tme
			// themselves.
			for _, i := range hv.Buffered() {
				addRec(f, i)
			}
		} else {
			c.ship(p, f)
			f = c.pool.Get()
			f.Head.Epoch = b.Epoch
		}
		if c.pol.gate == gateBoundary {
			c.wait(p, c.s.fullyAcked) // rule P2's wait
		}
		// Shipping inline charges per-peer setup time, so virtual time
		// passed and a failstop may have landed mid-boundary. A
		// failstopped processor halts where it stands: it must not
		// deliver, archive, or commit the epoch — a zombie commit would
		// feed observers (the session's commit coordinates, AddBackup's
		// state capture) an epoch the replica set never saw, because the
		// End died with the severed links.
		if c.stopped() {
			return
		}
		if c.pol.gate != gateRelease {
			c.released, c.haveReleased = b.Epoch, true
		}
		h := &f.Head
		h.HasEnd, h.Digest, h.Halted, h.Cut = true, b.Digest, b.Halted, b.GuestInstr
		h.Released, h.HaveReleased = c.released, c.haveReleased
		hv.TimerInterruptsDue(tme)
		c.archive.record(SyncEpoch{
			Epoch: b.Epoch, Tme: tme, Ints: hv.Buffered(),
			Digest: b.Digest, Halted: b.Halted,
		})
		hv.DeliverBuffered()
		c.ship(p, f)
		c.pend = append(c.pend, pendingEpoch{epoch: b.Epoch, seq: c.s.seq})
		// Same rationale as above: an inline End slept, and a failstop
		// landing there means no peer holds this epoch's End — the
		// commit must not be observed.
		if c.stopped() {
			return
		}
		c.advance()
		// A reintegration wants this boundary as its state-transfer
		// point: hold here until the stream drains, so the captured image
		// never certifies an epoch that would be lost — and re-executed
		// differently by a promoted backup — were this processor to
		// failstop now. Draining BEFORE the commit event lets the
		// session's boundary-sampled stop predicate observe the drained
		// state.
		if c.rep.joinBarrier && !c.wait(p, c.drained) {
			return
		}
		c.rep.observe(obs.Event{Kind: obs.EventEpochCommitted, Time: p.Now(), Node: c.rep.index, Epoch: b.Epoch, Tme: tme, Halted: b.Halted})
		hv.ChargeBoundary(p)
		hv.SetTODBase(tme)
		c.intIndex = 0
	}
	// The guest halted (or stopped) with epochs still in flight: wait
	// their acknowledgements out so the final output is released, then
	// let the transmit process exit.
	c.wait(p, c.outputReleased)
	if c.pol.coalesce {
		c.txClose = true
		c.txSig.Broadcast()
	}
}
