package replication

import (
	"fmt"
	"sort"

	"repro/internal/hypervisor"
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

// Backup drives a backup virtual machine's hypervisor: rules P3–P7. In
// the t-fault-tolerant generalization a backup has an index (1 = first
// to promote), receives from every higher-priority node, and — after
// promotion — coordinates every lower-priority backup, bringing them
// onto its stream with a replay of its delivered-interrupt archive.
type Backup struct {
	HV *hypervisor.Hypervisor

	index int
	ups   []Peer // to higher-priority nodes: RX = their stream, TX = our acks
	downs []Peer // to lower-priority backups (used only after promotion)
	proto Protocol

	// Timeout is the base failure-detection timeout; backup i waits
	// i × Timeout, so promotions cascade in priority order.
	Timeout sim.Time

	// BootTOD must equal the primary's (replicas start in one state).
	BootTOD uint32

	// PeerTimeout is handed to the coordinator this backup becomes at
	// promotion: how long its acknowledgement waits may block on a
	// peer that silently stops acking (zero: forever).
	PeerTimeout sim.Time

	// OnDivergence, when set, is called on a state-digest mismatch with
	// the coordinating primary; when nil, divergence panics (tripwire).
	OnDivergence func(epoch uint64, primary, backup uint64)

	// Hooks observes protocol milestones (optional; set before Run). A
	// backup that promotes hands the same hooks to its coordinator.
	Hooks Hooks

	// OutputCommit mirrors the coordinator's configuration (every
	// replica must agree): with proto, the policy of the coordinator
	// this backup becomes at promotion.
	OutputCommit OutputCommit

	pending map[uint64]*epochRecord
	// recFree recycles epoch records: a record freed at one epoch's
	// boundary serves a later epoch without reallocating its map.
	recFree []*epochRecord
	archive *epochArchive
	arrival *sim.Signal
	// completed counts epochs whose boundary processing has finished;
	// the epoch currently executing (or awaiting its boundary) is
	// `completed`, which is also the oldest epoch a sync may replay.
	completed uint64
	promoted  bool
	failed    bool
	done      bool
	// withdrawn marks a backup that fell outside a new primary's resync
	// window (or diverged from it) and can no longer participate.
	withdrawn bool
	halted    bool
	// rxStarted marks that the receiver processes are already running
	// (a late joiner starts them before its state transfer completes,
	// so acknowledgements flow while the image is in flight).
	rxStarted bool
	// coord is the coordinator loop this backup runs after promotion
	// (nil before); kept so late-joining backups can be added to its
	// fan-out.
	coord *coordinator
	// joinBarrier carries a pending reintegration drain (see
	// coordinator.joinBarrier) across a promotion that happens while the
	// quiesce is in progress.
	joinBarrier bool

	Stats Stats
}

// NewBackup wires backup number index (1-based priority). ups are the
// channels toward every higher-priority node, in priority order
// (ups[0] = the original primary); downs are the channels toward every
// lower-priority backup, used only after promotion. proto selects the
// protocol this backup will run if promoted.
func NewBackup(hv *hypervisor.Hypervisor, index int, ups, downs []Peer, timeout sim.Time, proto Protocol) *Backup {
	return &Backup{
		HV:      hv,
		index:   index,
		ups:     ups,
		downs:   downs,
		proto:   proto,
		Timeout: timeout,
		pending: map[uint64]*epochRecord{},
		archive: newEpochArchive(),
	}
}

// Promoted reports whether failover has occurred.
func (bk *Backup) Promoted() bool { return bk.promoted }

// SetJoinBarrier arms (or disarms) the reintegration drain on the
// coordinator this backup runs — now, if promoted, or at a promotion
// that happens while the barrier is armed. No-op for a backup that never
// coordinates.
func (bk *Backup) SetJoinBarrier(on bool) {
	bk.joinBarrier = on
	if bk.coord != nil {
		bk.coord.joinBarrier = on
	}
}

// ReplicationDrained reports whether every epoch this node has committed
// as acting coordinator is provably replicated. True for a backup that
// does not coordinate.
func (bk *Backup) ReplicationDrained() bool {
	if bk.coord == nil {
		return true
	}
	return bk.coord.drained()
}

// Withdrawn reports whether this backup dropped out of the replica set
// (it fell outside a new primary's resynchronization window).
func (bk *Backup) Withdrawn() bool { return bk.withdrawn }

// Failstop makes this backup's processor stop abruptly (multi-failure
// experiments), severing all its channels.
func (bk *Backup) Failstop() {
	bk.failed = true
	for _, u := range bk.ups {
		u.TX.Disconnect()
		u.RX.Disconnect()
	}
	for _, d := range bk.downs {
		d.TX.Disconnect()
		d.RX.Disconnect()
	}
}

// Failed reports whether a failstop was injected.
func (bk *Backup) Failed() bool { return bk.failed }

// effTimeout is this backup's failure-detection timeout: cascaded by
// priority so that at most one replica promotes per failure.
func (bk *Backup) effTimeout() sim.Time { return bk.Timeout * sim.Time(bk.index) }

// rec returns (allocating or recycling) the record for an epoch.
func (bk *Backup) rec(e uint64) *epochRecord {
	r := bk.pending[e]
	if r == nil {
		if n := len(bk.recFree); n > 0 {
			r = bk.recFree[n-1]
			bk.recFree = bk.recFree[:n-1]
		} else {
			r = &epochRecord{ints: map[uint32]hypervisor.Interrupt{}}
		}
		bk.pending[e] = r
	}
	return r
}

// release retires epoch e's record to the free list once its boundary
// processing is complete.
func (bk *Backup) release(e uint64) {
	r := bk.pending[e]
	if r == nil {
		return
	}
	delete(bk.pending, e)
	clear(r.ints)
	*r = epochRecord{ints: r.ints}
	bk.recFree = append(bk.recFree, r)
}

// receiver runs as its own simulation process per upstream channel: it
// acknowledges every message immediately (P4: "backup sends an
// acknowledgment to the primary") and files it by epoch.
func (bk *Backup) receiver(u Peer) func(p *sim.Proc) {
	return func(p *sim.Proc) {
		for !bk.promoted && !bk.done && !bk.failed {
			raw, ok := u.RX.Inbox.RecvTimeout(p, bk.Timeout)
			if !ok {
				continue
			}
			switch m := raw.Payload.(type) {
			case *epochFrame:
				u.TX.Send(ack(m.Head.Seq), 0)
				bk.file(m)
			case *epochBatch:
				// A transmit-side batch: several epochs in one wire
				// message. One cumulative ack covers them all (the ack
				// watermark is a high-water mark, so acking the newest
				// sequence acknowledges the whole FIFO prefix).
				if n := len(m.Recs); n > 0 {
					u.TX.Send(ack(m.Recs[n-1].Head.Seq), 0)
				}
				for _, f := range m.Recs {
					bk.file(f)
				}
				m.Release()
			case syncMsg:
				u.TX.Send(ack(m.Seq), 0)
				bk.applySync(m.Epochs)
			}
			bk.arrival.Broadcast()
		}
	}
}

// file is the one receive path: merge a frame's parts into its epoch's
// record. Partial frames, a coalesced frame and a frame inside a batch
// all land here and leave the same record behind.
func (bk *Backup) file(f *epochFrame) {
	h := &f.Head
	bk.Stats.IntsReceived += uint64(len(f.Recs))
	if r := bk.rec(h.Epoch); r.verbatim == nil {
		for i, rec := range f.Recs {
			r.ints[h.IntIndex+uint32(i)] = rec
		}
		if h.HasTme {
			r.tme, r.hasTme = h.Tme, true
		}
		if h.HasEnd {
			r.end = *h
		}
	}
	f.Release()
}

// applySync installs verbatim replay records from a newly promoted
// primary for every epoch this backup has not yet completed. If the
// sync's history starts after our next epoch, we cannot catch up:
// withdraw from the replica set.
func (bk *Backup) applySync(entries []SyncEpoch) {
	next := bk.completed // oldest epoch still needing boundary processing
	covered := false
	for i := range entries {
		e := entries[i]
		if e.Epoch < next {
			continue
		}
		if e.Epoch == next {
			covered = true
		}
		r := bk.rec(e.Epoch)
		ee := e
		r.verbatim = &ee
	}
	if !covered && len(entries) > 0 && entries[0].Epoch > next {
		bk.withdrawn = true
	}
}

// stageOrdered buffers epoch e's received interrupts in capture order.
func (bk *Backup) stageOrdered(e uint64) {
	r := bk.rec(e)
	idxs := make([]int, 0, len(r.ints))
	for k := range r.ints {
		idxs = append(idxs, int(k))
	}
	sort.Ints(idxs)
	for _, k := range idxs {
		bk.HV.BufferInterrupt(r.ints[uint32(k)])
	}
}

// agrees verifies one of our boundary coordinates against the
// coordinator's — the pre-delivery state digest (the §3.2 hazard
// tripwire), or the cut, the absolute instruction count the epoch ended
// at (output-triggered boundaries must be chosen identically) — and
// reports whether they matched.
func (bk *Backup) agrees(e uint64, what string, primary, ours uint64) bool {
	if primary == ours {
		return true
	}
	bk.Stats.Divergences++
	if bk.OnDivergence != nil {
		bk.OnDivergence(e, primary, ours)
		return false
	}
	panic(fmt.Sprintf("replication: divergence at epoch %d: primary %s %#x backup %#x",
		e, what, primary, ours))
}

// replayVerbatim applies a sync-provided epoch: deliver exactly what the
// new primary delivered.
func (bk *Backup) replayVerbatim(p *sim.Proc, e uint64, digest uint64, v *SyncEpoch) {
	hv := bk.HV
	for _, i := range v.Ints {
		if i.Timer {
			hv.NoteTimerDelivered()
		}
		hv.BufferInterrupt(i)
	}
	match := bk.agrees(e, "digest", v.Digest, digest)
	if bk.Hooks.BackupEpoch != nil {
		bk.Hooks.BackupEpoch(bk.index, e, p.Now(), match)
	}
	hv.DeliverBuffered()
	// The verbatim record proves the (new) coordinator completed this
	// epoch — it emitted everything through it, by promotion flush or
	// by running it — so the release watermark is e: drop ours.
	hv.SettleOutput(e, hypervisor.DropOutput)
	if len(bk.downs) > 0 {
		bk.archive.record(*v)
	}
	hv.SetTODBase(v.Tme)
	if v.Halted {
		bk.halted = true
	}
	bk.release(e)
}

// failover implements P6 and P7 and — with lower-priority backups
// present — the promotion handshake: replay history to them and carry on
// as their primary.
func (bk *Backup) failover(p *sim.Proc, e uint64, digest uint64) {
	hv := bk.HV
	// P6: deliver what we did receive for this epoch...
	bk.stageOrdered(e)
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
	bk.Stats.UncertainSynth += uint64(uncertain)
	// The output half of P7: re-emit the promotion flush set — the
	// failover epoch's suppressed environment output, and every earlier
	// epoch's the dead coordinator's release watermark had not covered.
	// The devices dedup by ordinal, so whatever the dead coordinator
	// already performed is emitted exactly once in total.
	hv.SettleOutput(^uint64(0), hypervisor.FlushOutput)
	delivered := append([]hypervisor.Interrupt(nil), hv.Buffered()...)
	hv.DeliverBuffered()

	bk.promoted = true
	bk.Stats.Promoted = true
	bk.Stats.PromotedAtEpoch = e
	bk.Stats.PromotedAtTime = p.Now()
	if bk.Hooks.Promoted != nil {
		bk.Hooks.Promoted(bk.index, e, p.Now(), uncertain)
	}
	bk.release(e)

	// The next epoch starts from our real clock (we are the authority
	// for time now).
	tmeNext := hv.M.TOD()
	bk.archive.record(SyncEpoch{Epoch: e, Tme: tmeNext, Ints: delivered, Digest: digest, Halted: hv.Halted()})

	// Continue as primary for the remaining backups.
	c := newCoordinator(hv, bk.downs, &bk.Stats,
		func() bool { return bk.failed }, bk.archive, &bk.Hooks, bk.index)
	c.pol = derivePolicy(bk.proto, bk.OutputCommit)
	c.s.peerTimeout = bk.PeerTimeout
	// The promotion flush above emitted everything retained through the
	// failover epoch, so the release watermark starts there.
	c.released, c.haveReleased = e, true
	c.joinBarrier = bk.joinBarrier
	bk.coord = c
	c.install(p)
	if len(bk.downs) > 0 {
		// Bring the others onto our stream: replay the retained history.
		m := syncMsg{Epochs: bk.archive.since(0)}
		c.s.seq++
		m.Seq = c.s.seq
		c.s.fanout(p, m, m.wireSize(), c.stopped)
	}
	hv.ChargeBoundary(p)
	c.run(p, tmeNext)
}

// await blocks until cond() or the cascaded timeout elapses; it returns
// false on timeout (primary declared failed).
func (bk *Backup) await(p *sim.Proc, cond func() bool) bool {
	for !cond() {
		if bk.failed || bk.withdrawn {
			return true // caller re-checks flags
		}
		if !p.WaitTimeout(bk.arrival, bk.effTimeout()) {
			return false
		}
	}
	return true
}

// StartReceivers spawns the receiver processes (one per upstream
// channel) if they are not running yet. Run calls it implicitly; a
// late joiner calls it at splice time, BEFORE its state transfer
// completes, so that protocol messages are acknowledged (P4) and filed
// while the virtual-machine image is still in flight — the joining
// hypervisor is alive from the first instant, only its guest state is
// in transit. Without this, a coordinator awaiting acknowledgements
// (P2, the §4.3 I/O gate) would stall for the whole transfer and trip
// the other replicas' failure detectors.
func (bk *Backup) StartReceivers(k *sim.Kernel) {
	if bk.rxStarted {
		return
	}
	bk.rxStarted = true
	bk.arrival = k.NewSignal(fmt.Sprintf("backup%d.arrival", bk.index))
	for i, u := range bk.ups {
		k.Spawn(fmt.Sprintf("backup%d-rx%d", bk.index, i), bk.receiver(u))
	}
}

// Abandon takes this backup out of the replica set before it ever ran
// (a reintegration whose state transfer failed: the source processor
// died with the image in flight). Its receivers wind down on their
// next timeout tick.
func (bk *Backup) Abandon() {
	bk.withdrawn = true
	bk.done = true
}

// Run executes the backup until the guest halts, the backup withdraws,
// or — after promotion — the coordinator loop finishes. It spawns one
// receiver process per upstream channel (unless StartReceivers already
// did).
func (bk *Backup) Run(p *sim.Proc) {
	hv := bk.HV
	hv.SetIOActive(false) // §2.2 case (i): suppress environment output
	hv.Stop = func() bool { return bk.failed }
	bk.StartReceivers(p.Kernel())
	defer func() { bk.done = true }()

	// P3 is structural: real device interrupts on the backup's processor
	// are ignored by the hypervisor (it issued nothing).

	hv.SetTODBase(bk.BootTOD)
	for !hv.Halted() && !bk.failed && !bk.withdrawn {
		b := hv.RunEpoch(p)
		if bk.failed {
			return
		}
		bk.Stats.Epochs++
		e := b.Epoch

		// --- Rule P5 (or verbatim replay after a coordinator change) ---
		r := bk.rec(e)
		ok := bk.await(p, func() bool { return r.verbatim != nil || r.hasTme })
		if bk.failed || bk.withdrawn {
			return
		}
		if !ok {
			// --- Rules P6 + P7, and promotion ---
			bk.failover(p, e, b.Digest)
			return
		}
		if r.verbatim == nil {
			ok = bk.await(p, func() bool { return r.verbatim != nil || r.end.HasEnd })
			if bk.failed || bk.withdrawn {
				return
			}
			if !ok {
				bk.failover(p, e, b.Digest)
				return
			}
		}
		if v := r.verbatim; v != nil {
			bk.replayVerbatim(p, e, b.Digest, v)
			hv.ChargeBoundary(p)
			bk.completed = e + 1
			continue
		}
		// Normal path: Tme_b := Tme_p; buffer; deliver; digest check.
		tme, end := r.tme, r.end
		match := bk.agrees(e, "digest", end.Digest, b.Digest) && bk.agrees(e, "cut", end.Cut, b.GuestInstr)
		if bk.Hooks.BackupEpoch != nil {
			bk.Hooks.BackupEpoch(bk.index, e, p.Now(), match)
		}
		bk.stageOrdered(e)
		hv.TimerInterruptsDue(tme)
		// Only a backup that may later coordinate others (it has
		// downstream peers) needs the delivery archive; the common
		// single-backup configuration skips the per-epoch copy.
		if len(bk.downs) > 0 {
			var delivered []hypervisor.Interrupt
			if buf := hv.Buffered(); len(buf) > 0 {
				delivered = append([]hypervisor.Interrupt(nil), buf...)
			}
			bk.archive.record(SyncEpoch{Epoch: e, Tme: tme, Ints: delivered, Digest: b.Digest, Halted: end.Halted})
		}
		hv.DeliverBuffered()
		// The one end-of-epoch rule: the coordinator has emitted output
		// only through its release watermark. Drop our suppressed copies
		// up to it and RETAIN the rest — they are the promotion flush set
		// (output the coordinator may die without ever releasing). At the
		// lock-step gates the watermark is e itself, so nothing is
		// retained across a completed epoch; a failover epoch — no End —
		// re-emits its own output instead.
		if end.HaveReleased {
			hv.SettleOutput(end.Released, hypervisor.DropOutput)
		}
		hv.ChargeBoundary(p)
		hv.SetTODBase(tme)
		bk.release(e)
		bk.completed = e + 1
		if end.Halted {
			bk.halted = true
		}
	}
}
