package replication

import (
	"fmt"
	"slices"

	"repro/internal/free"
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
// allocating, and since hands out copies of its own. Idle lists and
// outgrown rings wait in the arena, where every archive over it can take
// them.
type epochArchive struct {
	// ring holds epoch e at ring[e % len(ring)] for every recorded e in
	// [oldest, newest]; the span never exceeds len(ring), which at least
	// doubles when it would.
	ring   []archived
	n      int // entries held
	oldest uint64
	newest uint64
	window uint64
	arena  *Arena
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

// Arena owns what the replicas built over it (NewReplicaIn) recycle
// across clusters, so that a cluster built over a warm arena starts its
// epoch loop at working size. It has one owner at a time and no lock.
//   - The replicas: Release hands a replica back whole, with its epoch
//     index, its coordinator (sender and peer records included) and its
//     delivery archive, emptied but with its ring — a backup with
//     downstream peers never trims, so its ring grows toward the window
//     in every cluster. The archives' interrupt lists and the rings they
//     outgrew are the arena's, so a replica whose role this arena has not
//     served before grows its archive from what others left.
//   - Epoch records, with their interrupt maps: a replica takes a record
//     per epoch it follows and returns it at the boundary; Release
//     returns those still pending.
//   - The wire frames every replica of the cluster shares: epoch frames,
//     a transmit process's batches and acknowledgements. A frame goes
//     back to its pool at its last release; Reclaim takes back, at
//     teardown, the frames a dropped or unread copy still holds.
type Arena struct {
	replicas free.List[*Replica]
	rings    [][]archived                      // outgrown archive rings, cleared
	lists    free.List[[]hypervisor.Interrupt] // archives' idle interrupt lists, cleared
	records  free.List[*epochRecord]
	frames   netsim.FramePool[epochHead, hypervisor.Interrupt]
	batches  netsim.FramePool[struct{}, *epochFrame]
	acks     netsim.FramePool[uint64, struct{}]
}

// Reclaim returns every frame of the arena's pools, released or not, to
// its pool. Call only on teardown, after the simulation kernel is down
// and every replica over the arena is released.
func (a *Arena) Reclaim() {
	a.frames.Reclaim()
	a.batches.Reclaim()
	a.acks.Reclaim()
}

// Outstanding returns how many frames of the arena's pools are held by a
// reference, or lost with one.
func (a *Arena) Outstanding() int {
	return a.frames.Outstanding() + a.batches.Outstanding() + a.acks.Outstanding()
}

// archive returns a new, empty archive over a.
func (a *Arena) archive() *epochArchive {
	return &epochArchive{window: defaultArchiveWindow, arena: a}
}

// ring returns a cleared archive ring of at least n slots: the smallest
// outgrown one that is large enough, or a new one of n.
func (a *Arena) ring(n uint64) []archived {
	best := -1
	for i, r := range a.rings {
		if uint64(len(r)) >= n && (best < 0 || len(r) < len(a.rings[best])) {
			best = i
		}
	}
	if best < 0 {
		return make([]archived, n)
	}
	r := a.rings[best]
	last := len(a.rings) - 1
	a.rings[best], a.rings[last] = a.rings[last], nil
	a.rings = a.rings[:last]
	return r
}

// release empties the archive: every held list goes back to the arena,
// cleared, and the ring is zeroed, kept for the archive's next cluster.
func (a *epochArchive) release() {
	if a == nil {
		return
	}
	for i := range a.ring {
		if s := &a.ring[i]; s.held {
			a.recycle(s.Ints)
		}
	}
	clear(a.ring)
	a.n, a.oldest, a.newest = 0, 0, 0
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
		l, _ := a.arena.lists.Get()
		e.Ints = append(l, e.Ints...)
	} else {
		e.Ints = nil
	}
	*s = archived{SyncEpoch: e, held: true}
}

// fit grows the ring, by doubling, until it holds the span [oldest,
// newest], taking the new ring from the arena and leaving the old one
// there.
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
	a.ring = a.arena.ring(size)
	for _, s := range old {
		if s.held {
			*a.slot(s.Epoch) = s
		}
	}
	if len(old) > 0 {
		clear(old)
		a.arena.rings = append(a.arena.rings, old)
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
// completion payloads) and keeps it in the arena for reuse.
func (a *epochArchive) recycle(l []hypervisor.Interrupt) {
	if cap(l) > 0 {
		clear(l)
		a.arena.lists.Put(l[:0])
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

// coordinator holds the primary side of the protocol — rules P1 and P2,
// the §4.3 revision, or the output-commit window, as its policy says —
// against a hypervisor, fanning epoch frames out to a set of backups
// through a sender. Its loop is the second half of the replica's step
// machine (Replica.coordinate): what a replica does once nobody is
// upstream of it.
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

	pool *netsim.FramePool[epochHead, hypervisor.Interrupt] // the arena's
	// progress is broadcast whenever a wait's condition may have changed:
	// on every acknowledgement and after every transmit.
	progress *sim.Signal
	// frame is the epoch frame being built at the boundary in progress;
	// out is the fan-out the coordinator's own process is sleeping
	// through (a frame shipped inline, or the resync message).
	frame *epochFrame
	out   fanCursor
	// waiting/waitStart are the wait in progress (wait), gateStart the
	// §4.3 gate's (gateStep).
	waiting              bool
	waitStart, gateStart sim.Time
	// txq/txSig/txClose drive the transmit process (transmit) of a
	// coalescing coordinator: stamped frames awaiting fan-out, its
	// wakeup signal, and the end-of-run close flag; tx is its fan-out in
	// progress. Not captured by snapshots — restore replays the run
	// deterministically, which reproduces the queue.
	txq     []*epochFrame
	txSig   *sim.Signal
	txClose bool
	tx      fanCursor
	bpool   *netsim.FramePool[struct{}, *epochFrame] // the arena's
}

type pendingEpoch struct {
	epoch, seq uint64
}

// newCoordinator builds the coordinator r runs once nobody is upstream of
// it — at construction on node 0, at promotion elsewhere — over r's
// downstream channels, counters, archive and observer: in r's spare one,
// with its sender and lists, when it has one.
func (r *Replica) newCoordinator() *coordinator {
	c := r.spare
	if c == nil {
		c = new(coordinator)
	}
	r.spare = nil
	*c = coordinator{
		hv: r.HV, s: c.s.rebuild(r.downs, &r.Stats), stats: &r.Stats,
		pol:     derivePolicy(r.cfg.Protocol, r.cfg.OutputCommit),
		stopped: r.Failed, archive: r.archive, rep: r,
		pend: c.pend[:0], txq: c.txq[:0],
		pool: &r.arena.frames,
	}
	c.s.peerTimeout = r.cfg.PeerTimeout
	return c
}

// reset clears c for its replica's next cluster, keeping its sender (for
// its peer records) and lists, and returns it. The frames its transmit
// queue still holds are the arena's to reclaim.
func (c *coordinator) reset() *coordinator {
	clear(c.txq)
	*c = coordinator{s: c.s, pend: c.pend[:0], txq: c.txq[:0]}
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

// until reports whether what the coordinator waits for in phase ph
// holds: room in the output-commit window, the stream drained for the
// join barrier, the final output released, or else — P2's boundary gate,
// and phaseEpoch's §4.3 gate — every message acknowledged.
func (c *coordinator) until(ph phase) bool {
	switch ph {
	case phaseWindow:
		return c.pol.window == 0 || len(c.pend) < c.pol.window
	case phaseJoin:
		return c.drained()
	case phaseRelease:
		return c.outputReleased()
	}
	return c.s.fullyAcked()
}

// install hooks the coordinator into the hypervisor. Call once, from the
// replica's step, before its first epoch as coordinator.
func (c *coordinator) install(k *sim.Kernel) {
	hv := c.hv
	c.k = k
	c.progress = k.NewSignal()
	for _, ps := range c.s.peers {
		c.wire(ps)
	}
	hv.OnCapture, hv.OnBeforeIO = nil, nil
	if c.pol.coalesce {
		// Interrupts ride the epoch frame; a transmit process ships it.
		c.txSig = k.NewSignal()
		c.bpool = &c.rep.arena.batches
		k.Start(fmt.Sprintf("oc-tx%d", c.rep.index), c.transmit)
	} else {
		// P1: forward every captured interrupt immediately. The hooks'
		// sub-steps are bound once, here.
		forward := c.forwardStep
		hv.OnCapture = func(i hypervisor.Interrupt) sim.StepFunc {
			if c.stopped() {
				return nil
			}
			c.stats.IntsForwarded++
			f := c.pool.Get()
			f.Head = epochHead{Epoch: hv.Epoch(), IntIndex: c.intIndex}
			addRec(f, i)
			c.ship(f)
			return forward
		}
	}
	switch c.pol.gate {
	case gateOutput:
		gate := c.gateStep
		hv.OnBeforeIO = func() sim.StepFunc {
			if c.stopped() {
				return nil
			}
			c.gateStart = c.k.Now()
			c.stats.IOGateWaits++
			return gate
		}
	case gateRelease:
		hv.SetOutputDeferral(k.Now)
	}
	hv.Stop = c.stopped
	hv.SetIOActive(true)
}

// forwardStep is OnCapture's sub-step (P1): the interrupt record fans out
// to every backup, then the next capture takes the next index.
func (c *coordinator) forwardStep(*sim.Proc) (sim.Time, sim.StepStatus) {
	if d, ok := c.out.next(c.stopped); ok {
		return d, sim.StepMore
	}
	c.intIndex++
	return 0, sim.StepDone
}

// gateStep is OnBeforeIO's sub-step, the §4.3 gate: an I/O operation
// waits until every message sent so far is acknowledged.
func (c *coordinator) gateStep(p *sim.Proc) (sim.Time, sim.StepStatus) {
	if d, st, done := c.wait(p, phaseEpoch); !done {
		return d, st
	}
	c.stats.IOGateWaitTime += p.Now() - c.gateStart
	return 0, sim.StepDone
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
	ps := c.s.attach(p)
	ps.acked = c.s.seq
	if c.k != nil {
		c.wire(ps)
	}
}

// ship stamps a frame with the next sequence number and sends it: from
// the coordinator's own process, which sleeps the per-peer controller
// set-up cost through out, or — coalescing — by handing it to the
// transmit process and NOT sleeping, the way a DMA-capable controller
// works a queue while the CPU runs on. Sequence numbers are assigned in
// ship order and the single transmit process preserves it, so the FIFO
// acknowledgement watermark means the same either way.
func (c *coordinator) ship(f *epochFrame) {
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
	// One reference per receiver plus the sender's own, dropped when the
	// fan-out ends.
	f.Retain(c.s.receivers() + 1)
	c.out = c.s.cursor(f, f.Size, f)
}

// transmit is a coalescing coordinator's transmit process (a step): it
// drains the frame queue in FIFO order, paying the per-peer controller
// set-up cost off the guest's critical path. A backlog — several frames
// queued while one was on the controller — goes out as ONE batch
// message. It exits on coordinator failstop (queued frames die with the
// processor, exactly as writes a failstopped CPU never posted to its
// controller) or once the queue is drained after the coordinator closes
// it. A step ends at each set-up sleep and at each wait for a frame.
func (c *coordinator) transmit(*sim.Proc) (sim.Time, sim.StepStatus) {
	for {
		if c.tx.held != nil {
			if d, ok := c.tx.next(c.stopped); ok {
				return d, sim.StepMore
			}
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
			c.tx = c.s.cursor(f, f.Size, f)
		default:
			// The batch carries one reference per receiver plus the
			// sender's; each inner frame one per receiver (a receiver
			// files and releases the inner frames individually, then
			// releases the batch). With no receiver left the batch still
			// goes out at its full size, to be dropped, and its frames
			// go straight back to the pool.
			b := c.bpool.Get()
			b.Size = 8 // batch header
			n := c.s.receivers()
			for i, f := range c.txq {
				b.Size += f.Size
				c.txq[i] = nil
				if n == 0 {
					f.Retain(1)
					f.Release()
					continue
				}
				f.Retain(n)
				b.Recs = append(b.Recs, f)
			}
			c.txq = c.txq[:0]
			b.Retain(n + 1)
			c.tx = c.s.cursor(b, b.Size, b)
		}
	}
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

// wait is the one wait-with-liveness primitive, one call per wake of the
// step it stands in: wait until what phase ph waits for holds (until),
// waking on progress and ticking the liveness detector through silences
// (peers may have died, or their links gone down — both advance minAcked
// by exclusion). It answers the wait to end the step with, or done once
// the condition holds or the coordinator stopped; the caller tells the
// two apart with stopped.
func (c *coordinator) wait(p *sim.Proc, ph phase) (d sim.Time, st sim.StepStatus, done bool) {
	if !c.waiting {
		if c.until(ph) {
			return 0, 0, true
		}
		c.waiting, c.waitStart = true, p.Now()
		c.stats.AckWaits++
	} else if p.TimedOut() {
		c.s.checkLiveness(p.Now())
		c.advance()
	}
	if !c.until(ph) && !c.stopped() {
		d, st = c.progress.Await(ackTick)
		return d, st, false
	}
	c.waiting = false
	c.stats.AckWaitTime += p.Now() - c.waitStart
	return 0, 0, true
}

// coordinate is the replica's step once nobody is upstream of it: after a
// promotion, the handshake; then epochs until the guest halts or the
// coordinator is stopped, each closed by the boundary its policy
// prescribes. r.tme is the clock base for the next epoch. A phase that
// follows a frame shipped inline first sleeps out its fan-out.
func (r *Replica) coordinate(p *sim.Proc) (sim.Time, sim.StepStatus) {
	c, hv := r.coord, r.HV
	for {
		switch r.phase {
		case phaseResync:
			if d, ok := c.out.next(c.stopped); ok {
				return d, sim.StepMore
			}
			r.phase = phaseCharge
			return hv.ChargeBoundary(), sim.StepMore
		case phaseWindow:
			if !c.waiting && (hv.Halted() || c.stopped()) {
				r.phase = phaseRelease
				continue
			}
			if d, st, done := c.wait(p, r.phase); !done {
				return d, st
			}
			if c.stopped() {
				return r.finish()
			}
			hv.BeginEpoch()
			r.phase = phaseEpoch
		case phaseEpoch:
			if d, st := hv.EpochStep(p); st != sim.StepDone {
				return d, st
			}
			if r.b = hv.EndEpoch(); c.stopped() {
				return r.finish()
			}
			c.stats.Epochs++
			// --- Rule P2 ---
			r.tme, r.phase = r.b.TOD, phaseP2Gate
			c.frame = c.pool.Get()
			c.frame.Head = epochHead{Epoch: r.b.Epoch, HasTme: true, Tme: r.tme}
			if !c.pol.coalesce {
				c.ship(c.frame)
				c.frame = nil
				continue
			}
			// The interrupt records are snapshotted BEFORE timer synthesis:
			// backups compute timer interrupts from Tme themselves.
			for _, i := range hv.Buffered() {
				addRec(c.frame, i)
			}
		case phaseP2Gate:
			if d, ok := c.out.next(c.stopped); ok {
				return d, sim.StepMore
			}
			if c.frame == nil {
				c.frame = c.pool.Get()
				c.frame.Head.Epoch = r.b.Epoch
			}
			if c.pol.gate == gateBoundary {
				if d, st, done := c.wait(p, r.phase); !done {
					return d, st // rule P2's wait
				}
			}
			// Shipping inline charges per-peer setup time, so virtual time
			// passed and a failstop may have landed mid-boundary. A
			// failstopped processor halts where it stands: it must not
			// deliver, archive, or commit the epoch — a zombie commit would
			// feed observers (the session's commit coordinates, AddBackup's
			// state capture) an epoch the replica set never saw, because the
			// End died with the severed links.
			if c.stopped() {
				return r.finish()
			}
			b := &r.b
			if c.pol.gate != gateRelease {
				c.released, c.haveReleased = b.Epoch, true
			}
			h := &c.frame.Head
			h.HasEnd, h.Digest, h.Halted, h.Cut = true, b.Digest, b.Halted, b.GuestInstr
			h.Released, h.HaveReleased = c.released, c.haveReleased
			hv.TimerInterruptsDue(r.tme)
			c.archive.record(SyncEpoch{
				Epoch: b.Epoch, Tme: r.tme, Ints: hv.Buffered(),
				Digest: b.Digest, Halted: b.Halted,
			})
			hv.DeliverBuffered()
			c.ship(c.frame)
			c.frame, r.phase = nil, phaseP2End
		case phaseP2End:
			if d, ok := c.out.next(c.stopped); ok {
				return d, sim.StepMore
			}
			c.pend = append(c.pend, pendingEpoch{epoch: r.b.Epoch, seq: c.s.seq})
			// Same rationale as above: an inline End slept, and a failstop
			// landing there means no peer holds this epoch's End — the
			// commit must not be observed.
			if c.stopped() {
				return r.finish()
			}
			c.advance()
			// A reintegration wants this boundary as its state-transfer
			// point: hold here until the stream drains, so the captured image
			// never certifies an epoch that would be lost — and re-executed
			// differently by a promoted backup — were this processor to
			// failstop now. Draining BEFORE the commit event lets the
			// session's boundary-sampled stop predicate observe the drained
			// state.
			r.phase = phaseJoin
		case phaseJoin:
			if r.joinBarrier || c.waiting {
				if d, st, done := c.wait(p, r.phase); !done {
					return d, st
				}
				if c.stopped() {
					return r.finish()
				}
			}
			r.observe(obs.Event{Kind: obs.EventEpochCommitted, Time: p.Now(), Node: r.index, Epoch: r.b.Epoch, Tme: r.tme, Halted: r.b.Halted})
			r.phase = phaseCharge
			return hv.ChargeBoundary(), sim.StepMore
		case phaseCharge:
			hv.SetTODBase(r.tme)
			c.intIndex = 0
			r.phase = phaseWindow
		case phaseRelease:
			// The guest halted (or stopped) with epochs still in flight:
			// wait their acknowledgements out so the final output is
			// released, then let the transmit process exit.
			if d, st, done := c.wait(p, r.phase); !done {
				return d, st
			}
			if c.pol.coalesce {
				c.txClose = true
				c.txSig.Broadcast()
			}
			return r.finish()
		}
	}
}
