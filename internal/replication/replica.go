package replication

import (
	"fmt"
	"maps"
	"slices"

	"repro/internal/hypervisor"
	"repro/internal/netsim"
	"repro/internal/obs"
	"repro/internal/sim"
)

// epochRecord collects the frame parts received for one epoch, however
// the coordinator framed them.
type epochRecord struct {
	ints   map[uint32]hypervisor.Interrupt // by capture index (dedupes)
	tme    uint32
	hasTme bool
	end    epochHead // the header that carried End (end.HasEnd: arrived)
	// verbatim, when set, replaces everything above: the epoch is
	// replayed exactly as a (new) primary's syncMsg dictates.
	verbatim *SyncEpoch
}

// Config holds the four values every replica of a set must agree on. It
// is given at construction, to boot-time replicas and late joiners
// alike.
type Config struct {
	// Protocol and OutputCommit place the coordinator a replica is (node
	// 0) or becomes (at promotion) in the design space; see policy.go.
	Protocol     Protocol
	OutputCommit OutputCommit
	// DetectTimeout is the base failure-detection timeout: replica i
	// waits i × DetectTimeout for its coordinator, so promotions cascade
	// in priority order.
	DetectTimeout sim.Time
	// PeerTimeout, when nonzero, bounds how long a coordinator's
	// acknowledgement wait (P2, the §4.3 I/O gate) may block on a peer
	// that has stopped acknowledging while its channel stays up; such a
	// peer is then declared failed and excluded. Zero waits forever (the
	// paper's reliable-channel assumption).
	PeerTimeout sim.Time
}

// Replica drives one virtual machine's hypervisor through the paper's
// rules read literally: follow whoever is upstream (P3–P5) until nobody
// is (P6/P7), then coordinate whoever is downstream (P1/P2, or the §4.3
// revision). A replica's role is only its position. Its index is the
// number of nodes upstream of it: node 0, the boot primary, has none and
// starts at the second half; node i receives from every higher-priority
// node and — after promotion — brings every lower-priority one onto its
// stream with a replay of its delivered-interrupt archive. With t
// backups the system is t-fault-tolerant: the paper builds t = 1 and
// notes the generalization is straightforward; here it is implemented.
type Replica struct {
	HV *hypervisor.Hypervisor

	cfg   Config
	index int
	ups   []Peer // to higher-priority nodes: RX = their stream, TX = our acks
	downs []Peer // to lower-priority nodes: the fan-out once nobody is upstream

	// BootTOD is the virtual machines' initial clock value (all
	// replicas must agree; default 0).
	BootTOD uint32

	// OnDivergence, when set, is called on a state-digest mismatch with
	// the coordinator being followed; when nil, divergence panics
	// (tripwire).
	OnDivergence func(epoch uint64, primary, backup uint64)

	// Observer, when set, sees the protocol milestones as they happen:
	// EventEpochCommitted and EventOutputCommitted from the coordinator,
	// EventBackupEpoch after each digest check, EventPromoted at P6/P7.
	// It runs in simulation context and must not block in virtual time (an
	// observer that slept would perturb the protocol timing it watches).
	Observer func(obs.Event)

	pending map[uint64]*epochRecord
	// order is stageOrdered's scratch list of capture indexes.
	order   []uint32
	archive *epochArchive
	// arena owns the replica itself — with pending, order, archive and its
	// coordinator, kept in spare while it has none — the epoch records (a
	// record freed at one epoch's boundary serves a later epoch without
	// reallocating its map) and the frames the replica sends:
	// acknowledgements upstream, and as coordinator its epoch frames and
	// batches.
	arena   *Arena
	spare   *coordinator
	arrival *sim.Signal
	// completed counts epochs whose boundary processing has finished;
	// the epoch currently executing (or awaiting its boundary) is
	// `completed`, which is also the oldest epoch a sync may replay.
	completed uint64
	promoted  bool
	failed    bool
	done      bool
	// withdrawn marks a replica that fell outside a new coordinator's
	// resync window (or diverged from it) and can no longer participate.
	withdrawn bool
	halted    bool
	// rxStarted marks that the receiver processes are already running
	// (a late joiner starts them before its state transfer completes,
	// so acknowledgements flow while the image is in flight).
	rxStarted bool
	// coord is the coordinator loop this replica runs once nobody is
	// upstream: built at construction on node 0, at promotion elsewhere
	// (nil until then).
	coord *coordinator
	// phase is where the replica's step (Run) resumes at its next wake:
	// the rule it is carrying out. b is the boundary of the epoch it last
	// ran, er that epoch's record while following, tme the clock base of
	// the next epoch, halting the followed End's Halted flag; waited marks
	// a P5 wait in progress.
	phase   phase
	b       hypervisor.Boundary
	er      *epochRecord
	tme     uint32
	halting bool
	waited  bool
	// joinBarrier makes the coordinator this replica runs hold at each
	// epoch boundary until the replication stream is fully drained (see
	// coordinator.drained); it lives here so that it carries across a
	// promotion that happens while the quiesce is in progress. A
	// reintegration sets it while quiescing: the state-transfer image must
	// be captured at a boundary the survivors can reconstruct, and with a
	// transmit queue an ordinary boundary is NOT one — frames may still sit
	// in the queue, dying with the processor on a failstop.
	joinBarrier bool

	Stats Stats
}

// NewReplica wires the replica with len(ups) nodes upstream of it. ups
// are the channels toward every higher-priority node, in priority order
// (ups[0] = node 0); downs are the channels toward every lower-priority
// node, in the order they would promote.
func NewReplica(hv *hypervisor.Hypervisor, ups, downs []Peer, cfg Config) *Replica {
	return NewReplicaIn(new(Arena), hv, ups, downs, cfg)
}

// NewReplicaIn is NewReplica over an arena: the replica is one released
// to a, rebuilt in place with its archive, epoch index and coordinator,
// when a has one; its epoch records and frames come from a too, and all
// of it goes back at Release (the frames at their last release, or at
// a's Reclaim).
func NewReplicaIn(a *Arena, hv *hypervisor.Hypervisor, ups, downs []Peer, cfg Config) *Replica {
	r, ok := a.replicas.Get()
	if !ok {
		r = &Replica{pending: map[uint64]*epochRecord{}, archive: a.archive()}
	}
	*r = Replica{
		HV:      hv,
		cfg:     cfg,
		index:   len(ups),
		ups:     ups,
		downs:   downs,
		pending: r.pending,
		order:   r.order[:0],
		archive: r.archive,
		arena:   a,
		spare:   r.spare,
	}
	if len(ups) == 0 {
		// Built now, not in Run, so that a late joiner can be spliced in
		// and the state encoded before the first instruction.
		r.coord = r.newCoordinator()
	}
	return r
}

// Promoted reports whether this replica took over from a failed
// coordinator (never true of node 0, which had nobody to take over from).
func (r *Replica) Promoted() bool { return r.promoted }

// SetJoinBarrier arms (or disarms) the reintegration drain: while set,
// the coordinator this replica runs — now, or from a promotion that
// happens while the barrier is armed — holds at each epoch boundary until
// every committed epoch is replicated (see Replica.joinBarrier).
// Call from a paused simulation, as with AddDownstream.
func (r *Replica) SetJoinBarrier(on bool) { r.joinBarrier = on }

// ReplicationDrained reports whether every epoch this replica has
// committed as coordinator is provably held by the live replicas
// downstream — the safe capture condition for a state transfer. True of
// a replica that does not coordinate.
func (r *Replica) ReplicationDrained() bool {
	return r.coord == nil || r.coord.drained()
}

// Withdrawn reports whether this replica dropped out of the replica set
// (it fell outside a new coordinator's resynchronization window).
func (r *Replica) Withdrawn() bool { return r.withdrawn }

// Failstop makes the replica's processor stop abruptly: execution ceases
// at the next instruction-chunk boundary and every channel, upstream and
// downstream, is severed. Call from a scheduled simulation event to
// inject a failure at an arbitrary virtual time (including mid-epoch,
// mid-I/O — the two generals window of §2.2).
func (r *Replica) Failstop() {
	r.failed = true
	for _, peers := range [][]Peer{r.ups, r.downs} {
		for _, p := range peers {
			p.TX.Disconnect()
			p.RX.Disconnect()
		}
	}
}

// Release hands the replica back to its arena, its pending epoch records
// returned, its archive emptied and its coordinator cleared; a second
// call before the next NewReplicaIn does nothing. The session engine
// calls it on teardown, once no process will run again; the replica must
// not be used afterwards.
func (r *Replica) Release() {
	a := r.arena
	if a == nil {
		return // released already
	}
	for _, e := range slices.Sorted(maps.Keys(r.pending)) {
		r.release(e)
	}
	r.archive.release()
	spare := r.spare
	if r.coord != nil {
		spare = r.coord.reset()
	}
	*r = Replica{pending: r.pending, order: r.order[:0], archive: r.archive, spare: spare}
	a.replicas.Put(r)
}

// observe hands ev to the Observer, if any.
func (r *Replica) observe(ev obs.Event) {
	if r.Observer != nil {
		r.Observer(ev)
	}
}

// Failed reports whether a failstop was injected.
func (r *Replica) Failed() bool { return r.failed }

// effTimeout is this replica's failure-detection timeout: cascaded by
// priority so that at most one replica promotes per failure.
func (r *Replica) effTimeout() sim.Time { return r.cfg.DetectTimeout * sim.Time(r.index) }

// rec returns (allocating or recycling) the record for an epoch.
func (r *Replica) rec(e uint64) *epochRecord {
	er := r.pending[e]
	if er == nil {
		var ok bool
		if er, ok = r.arena.records.Get(); !ok {
			er = &epochRecord{ints: map[uint32]hypervisor.Interrupt{}}
		}
		r.pending[e] = er
	}
	return er
}

// release retires epoch e's record to the arena once its boundary
// processing is complete.
func (r *Replica) release(e uint64) {
	er := r.pending[e]
	if er == nil {
		return
	}
	delete(r.pending, e)
	clear(er.ints)
	*er = epochRecord{ints: er.ints}
	r.arena.records.Put(er)
}

// receiver is the step of the simulation process that serves one
// upstream channel: it acknowledges every message immediately (P4:
// "backup sends an acknowledgment to the primary") and files it by epoch,
// until the replica is promoted, finished or failed. It waits for the
// inbox with the detection timeout as its liveness tick.
func (r *Replica) receiver(u Peer) sim.StepFunc {
	inbox := u.RX.Inbox
	woke := false // the call follows a wait of the receiver's
	return func(p *sim.Proc) (sim.Time, sim.StepStatus) {
		// A Put that ended the wait left an item: the receiver is its
		// inbox's one consumer. A failed replica takes nothing — its
		// processor stopped, and the ack would go into a severed link —
		// but the delivery still wakes its loop, which then sees the
		// failstop and finishes.
		if woke && !p.TimedOut() {
			if r.failed {
				r.arrival.Broadcast()
			} else if raw, ok := inbox.TryRecv(); ok {
				r.take(u, raw)
			}
		}
		for !r.promoted && !r.done && !r.failed {
			raw, ok := inbox.TryRecv()
			if !ok {
				woke = true
				return inbox.Await(r.cfg.DetectTimeout)
			}
			r.take(u, raw)
		}
		return 0, sim.StepDone
	}
}

// take acknowledges one message from upstream u and files it.
func (r *Replica) take(u Peer, raw netsim.Message) {
	switch m := raw.Payload.(type) {
	case *epochFrame:
		r.sendAck(u, m.Head.Seq)
		r.file(m)
	case *epochBatch:
		// A transmit-side batch: several epochs in one wire message. One
		// cumulative ack covers them all (the ack watermark is a
		// high-water mark, so acking the newest sequence acknowledges the
		// whole FIFO prefix).
		if n := len(m.Recs); n > 0 {
			r.sendAck(u, m.Recs[n-1].Head.Seq)
		}
		for _, f := range m.Recs {
			r.file(f)
		}
		m.Release()
	case syncMsg:
		r.sendAck(u, m.Seq)
		r.applySync(m.Epochs)
	}
	r.arrival.Broadcast()
}

// sendAck acknowledges seq to upstream u (P4) in a message from the
// arena's pool; the coordinator's intake returns it.
func (r *Replica) sendAck(u Peer, seq uint64) {
	a := r.arena.acks.Get()
	a.Head = seq
	a.Retain(1)
	u.TX.Send(a, 0)
}

// file is the one receive path: merge a frame's parts into its epoch's
// record. Partial frames, a coalesced frame and a frame inside a batch
// all land here and leave the same record behind.
func (r *Replica) file(f *epochFrame) {
	h := &f.Head
	r.Stats.IntsReceived += uint64(len(f.Recs))
	if er := r.rec(h.Epoch); er.verbatim == nil {
		for i, rec := range f.Recs {
			er.ints[h.IntIndex+uint32(i)] = rec
		}
		if h.HasTme {
			er.tme, er.hasTme = h.Tme, true
		}
		if h.HasEnd {
			er.end = *h
		}
	}
	f.Release()
}

// applySync installs verbatim replay records from a newly promoted
// coordinator for every epoch this replica has not yet completed. If the
// sync's history starts after our next epoch, we cannot catch up:
// withdraw from the replica set.
func (r *Replica) applySync(entries []SyncEpoch) {
	next := r.completed // oldest epoch still needing boundary processing
	covered := false
	for i := range entries {
		e := entries[i]
		if e.Epoch < next {
			continue
		}
		if e.Epoch == next {
			covered = true
		}
		er := r.rec(e.Epoch)
		ee := e
		er.verbatim = &ee
	}
	if !covered && len(entries) > 0 && entries[0].Epoch > next {
		r.withdrawn = true
	}
}

// stageOrdered buffers epoch e's received interrupts in capture order.
func (r *Replica) stageOrdered(e uint64) {
	er := r.rec(e)
	r.order = r.order[:0]
	for k := range er.ints {
		r.order = append(r.order, k)
	}
	slices.Sort(r.order)
	for _, k := range r.order {
		r.HV.BufferInterrupt(er.ints[k])
	}
}

// agrees verifies one of our boundary coordinates against the
// coordinator's — the pre-delivery state digest (the §3.2 hazard
// tripwire), or the cut, the absolute instruction count the epoch ended
// at (output-triggered boundaries must be chosen identically) — and
// reports whether they matched.
func (r *Replica) agrees(e uint64, what string, primary, ours uint64) bool {
	if primary == ours {
		return true
	}
	r.Stats.Divergences++
	if r.OnDivergence != nil {
		r.OnDivergence(e, primary, ours)
		return false
	}
	panic(fmt.Sprintf("replication: divergence at epoch %d: primary %s %#x backup %#x",
		e, what, primary, ours))
}

// replayVerbatim applies a sync-provided epoch: deliver exactly what the
// new coordinator delivered.
func (r *Replica) replayVerbatim(p *sim.Proc, e uint64, digest uint64, v *SyncEpoch) {
	hv := r.HV
	for _, i := range v.Ints {
		if i.Timer {
			hv.NoteTimerDelivered()
		}
		hv.BufferInterrupt(i)
	}
	match := r.agrees(e, "digest", v.Digest, digest)
	r.observe(obs.Event{Kind: obs.EventBackupEpoch, Time: p.Now(), Node: r.index, Epoch: e, DigestMatch: match})
	hv.DeliverBuffered()
	// The verbatim record proves the (new) coordinator completed this
	// epoch — it emitted everything through it, by promotion flush or
	// by running it — so the release watermark is e: drop ours.
	hv.SettleOutput(e, hypervisor.DropOutput)
	if len(r.downs) > 0 {
		r.archive.record(*v)
	}
	hv.SetTODBase(v.Tme)
	if v.Halted {
		r.halted = true
	}
	r.release(e)
}

// StartReceivers starts the receiver processes (one per upstream
// channel) if they are not running yet. Run calls it implicitly; a
// late joiner calls it at splice time, BEFORE its state transfer
// completes, so that protocol messages are acknowledged (P4) and filed
// while the virtual-machine image is still in flight — the joining
// hypervisor is alive from the first instant, only its guest state is
// in transit. Without this, a coordinator awaiting acknowledgements
// (P2, the §4.3 I/O gate) would stall for the whole transfer and trip
// the other replicas' failure detectors.
func (r *Replica) StartReceivers(k *sim.Kernel) {
	if r.rxStarted {
		return
	}
	r.rxStarted = true
	r.arrival = k.NewSignal(fmt.Sprintf("backup%d.arrival", r.index))
	for i, u := range r.ups {
		k.Start(fmt.Sprintf("backup%d-rx%d", r.index, i), r.receiver(u))
	}
}

// Abandon takes this replica out of the replica set before it ever ran
// (a reintegration whose state transfer failed: the source processor
// died with the image in flight). Its receivers wind down on their
// next timeout tick.
func (r *Replica) Abandon() {
	r.withdrawn = true
	r.done = true
}

// phase names the rule a replica's step is carrying out.
type phase uint8

const (
	// phaseBoot: the first call — follow if anyone is upstream, else
	// coordinate.
	phaseBoot phase = iota

	// Following (P3–P5).

	// phaseFollow: run the next epoch, unless the guest halted or the
	// replica failed or withdrew.
	phaseFollow
	// phaseFollowEpoch: the epoch runs (hypervisor EpochStep).
	phaseFollowEpoch
	// phaseP5Tme: P5's wait for [Tme_p] (or a verbatim record).
	phaseP5Tme
	// phaseP5End: P5's wait for [end, E].
	phaseP5End
	// phaseFollowCharge: the followed epoch's boundary charge is slept.
	phaseFollowCharge
	// phaseReplayCharge: a verbatim epoch's boundary charge is slept.
	phaseReplayCharge

	// Coordinating (coordinate: P6/P7's handshake, then P1/P2, the §4.3
	// revision or output commit).

	// phaseResync: after P6/P7, the sync message fans out downstream; then
	// the failover epoch's boundary charge.
	phaseResync

	// phaseWindow: run the next epoch, unless the guest halted or the
	// coordinator stopped — once the output-commit window has room for one
	// more epoch in flight.
	phaseWindow
	// phaseEpoch: the epoch runs; P1's forwarding of each capture and the
	// §4.3 gate before each I/O operation are its sub-steps.
	phaseEpoch
	// phaseP2Gate: [Tme_p] has been shipped (and fanned out, on the
	// lock-step framing); P2's wait for every acknowledgement (the
	// boundary gate), then the epoch is delivered and [end, E] shipped.
	phaseP2Gate
	// phaseP2End: [end, E] fans out; the epoch joins the pending list.
	phaseP2End
	// phaseJoin: if the join barrier is armed, its wait for the stream to
	// drain; then the epoch commits, and its boundary charge follows.
	phaseJoin
	// phaseCharge: the boundary charge is slept.
	phaseCharge
	// phaseRelease: the guest halted or the coordinator stopped: the wait
	// for the release of the final output.
	phaseRelease
)

// Run is the replica's step (sim.StepFunc), run as its simulation process
// until the guest halts, a failstop is injected or the replica withdraws:
// it follows its upstream nodes while there are any (P3–P5, starting one
// receiver process per upstream channel unless StartReceivers already
// did), and once there are none — from the start on node 0, after the
// cascaded detection timeout declares every upstream node failed and the
// replica promotes (P6/P7) elsewhere — it coordinates the nodes
// downstream.
func (r *Replica) Run(p *sim.Proc) (sim.Time, sim.StepStatus) {
	hv := r.HV
	for {
		switch r.phase {
		case phaseBoot:
			if len(r.ups) == 0 {
				r.coord.install(p.Kernel())
				r.tme, r.phase = r.BootTOD, phaseCharge // no charge: the clock base only
				continue
			}
			hv.SetIOActive(false) // §2.2 case (i): suppress environment output
			hv.Stop = r.Failed
			r.StartReceivers(p.Kernel())
			// P3 is structural: real device interrupts on a following
			// replica's processor are ignored by the hypervisor (it issued
			// nothing).
			hv.SetTODBase(r.BootTOD)
			r.phase = phaseFollow

		case phaseFollow:
			if hv.Halted() || r.failed || r.withdrawn {
				return r.finish()
			}
			hv.BeginEpoch()
			r.phase = phaseFollowEpoch

		case phaseFollowEpoch:
			if d, st := hv.EpochStep(p); st != sim.StepDone {
				return d, st
			}
			if r.b = hv.EndEpoch(); r.failed {
				return r.finish()
			}
			r.Stats.Epochs++
			// --- Rule P5 (or verbatim replay after a coordinator change) ---
			r.er, r.phase = r.rec(r.b.Epoch), phaseP5Tme

		case phaseP5Tme, phaseP5End:
			// ok turns false when the cascaded timeout declares the
			// coordinator failed; a failed or withdrawn replica stops
			// waiting, and the flags are checked below.
			er, ok := r.er, !(r.waited && p.TimedOut())
			have := er.verbatim != nil || (r.phase == phaseP5Tme && er.hasTme) || (r.phase == phaseP5End && er.end.HasEnd)
			if r.waited = ok && !have && !r.failed && !r.withdrawn; r.waited {
				return r.arrival.Await(r.effTimeout())
			}
			if ok && er.verbatim == nil && r.phase == phaseP5Tme {
				r.phase = phaseP5End
				continue
			}
			if r.failed || r.withdrawn {
				return r.finish()
			}
			if !ok {
				r.promote(p) // --- Rules P6 + P7, and promotion ---
				continue
			}
			if v := er.verbatim; v != nil {
				r.replayVerbatim(p, r.b.Epoch, r.b.Digest, v)
				r.phase = phaseReplayCharge
			} else {
				r.deliver(p)
				r.phase = phaseFollowCharge
			}
			return hv.ChargeBoundary(), sim.StepMore

		case phaseReplayCharge:
			r.completed = r.b.Epoch + 1
			r.phase = phaseFollow

		case phaseFollowCharge:
			hv.SetTODBase(r.tme)
			r.release(r.b.Epoch)
			r.completed = r.b.Epoch + 1
			if r.halting {
				r.halted = true
			}
			r.phase = phaseFollow

		default:
			return r.coordinate(p)
		}
	}
}

// deliver is a followed epoch's boundary, once its frame has arrived:
// Tme_b := Tme_p; buffer; deliver; digest check. The End's fields are
// kept for after the boundary charge (a sync may replace the record
// meanwhile).
func (r *Replica) deliver(p *sim.Proc) {
	hv, b, e := r.HV, r.b, r.b.Epoch
	r.tme, r.halting = r.er.tme, r.er.end.Halted
	end := r.er.end
	match := r.agrees(e, "digest", end.Digest, b.Digest) && r.agrees(e, "cut", end.Cut, b.GuestInstr)
	r.observe(obs.Event{Kind: obs.EventBackupEpoch, Time: p.Now(), Node: r.index, Epoch: e, DigestMatch: match})
	r.stageOrdered(e)
	hv.TimerInterruptsDue(r.tme)
	// Only a replica that may later coordinate others (it has downstream
	// peers) needs the delivery archive; the common single-backup
	// configuration skips the per-epoch copy.
	if len(r.downs) > 0 {
		r.archive.record(SyncEpoch{Epoch: e, Tme: r.tme, Ints: hv.Buffered(), Digest: b.Digest, Halted: end.Halted})
	}
	hv.DeliverBuffered()
	// The one end-of-epoch rule: the coordinator has emitted output only
	// through its release watermark. Drop our suppressed copies up to it
	// and RETAIN the rest — they are the promotion flush set (output the
	// coordinator may die without ever releasing). At the lock-step gates
	// the watermark is e itself, so nothing is retained across a completed
	// epoch; a failover epoch — no End — re-emits its own output instead.
	if end.HaveReleased {
		hv.SettleOutput(end.Released, hypervisor.DropOutput)
	}
}

// finish ends the replica's process.
func (r *Replica) finish() (sim.Time, sim.StepStatus) {
	r.done = true
	return 0, sim.StepDone
}

// promote implements P6 and P7 at the failover boundary r.b and makes
// this replica the coordinator, starting from the clock base it sets in
// r.tme. With replicas downstream, the promotion handshake comes first:
// bring them onto our stream with a replay of the retained history; then
// the failover epoch's boundary is charged.
func (r *Replica) promote(p *sim.Proc) {
	hv, b, e := r.HV, r.b, r.b.Epoch
	// P6: deliver what we did receive for this epoch...
	r.stageOrdered(e)
	// ...plus "interrupts based on Tme_b" — our own clock; no Tme_p came.
	hv.TimerInterruptsDue(hv.VirtualTOD())
	// P7, device-generic: "generate an uncertain interrupt for every I/O
	// operation that is outstanding when the backup virtual machine
	// finishes a failover epoch" — plus, for input devices, the pending
	// environment input no replica consumed. An operation whose
	// completion was relayed but not yet delivered receives both the
	// completion and the uncertain status; the guest driver's retry is
	// harmless (IO2 permits repetition).
	_, uncertain := hv.OutstandingUncertain()
	r.Stats.UncertainSynth += uint64(uncertain)
	// The output half of P7: re-emit the promotion flush set — the
	// failover epoch's suppressed environment output, and every earlier
	// epoch's the dead coordinator's release watermark had not covered.
	// The devices dedup by ordinal, so whatever the dead coordinator
	// already performed is emitted exactly once in total.
	hv.SettleOutput(^uint64(0), hypervisor.FlushOutput)
	delivered := append([]hypervisor.Interrupt(nil), hv.Buffered()...)
	hv.DeliverBuffered()

	r.promoted = true
	r.Stats.Promoted = true
	r.Stats.PromotedAtEpoch = e
	r.Stats.PromotedAtTime = p.Now()
	r.observe(obs.Event{Kind: obs.EventPromoted, Time: p.Now(), Node: r.index, Epoch: e, Uncertain: uncertain})
	r.release(e)

	// The next epoch starts from our real clock (we are the authority
	// for time now).
	r.tme = hv.M.TOD()
	r.archive.record(SyncEpoch{Epoch: e, Tme: r.tme, Ints: delivered, Digest: b.Digest, Halted: hv.Halted()})

	r.coord = r.newCoordinator()
	// The promotion flush above emitted everything retained through the
	// failover epoch, so the release watermark starts there.
	r.coord.released, r.coord.haveReleased = e, true
	r.coord.install(p.Kernel())
	r.phase = phaseResync
	if c := r.coord; len(r.downs) > 0 {
		m := syncMsg{Epochs: r.archive.since(0)}
		c.s.seq++
		m.Seq = c.s.seq
		c.out = c.s.cursor(m, m.wireSize(), nil)
	}
}
