package replication

// This file captures the replication layer's protocol state — the
// counterpart of machine.State/hypervisor.State one level up. A session
// checkpoint serializes it so a restored run can be VERIFIED against
// the original bit for bit: the epoch archive tail a coordinator
// retains for resynchronization, the sequence/acknowledgement
// watermarks and pending-epoch list that drive every wait, release and
// archive trim, and the per-epoch buffers a backup accumulates between
// its own epoch boundary and the coordinator's frames.
//
// Capture is read-only and allocation-heavy by design (deep copies):
// it runs at session checkpoints, never on the protocol hot path.

import (
	"sort"

	"repro/internal/hypervisor"
)

// PendingAckState is one shipped epoch awaiting acknowledgement: the
// epoch and the sequence number of the frame that carried its End.
type PendingAckState struct {
	Epoch uint64
	Seq   uint64
}

// CoordinatorState captures a live coordinator (the primary, or a
// promoted backup coordinating lower-priority peers).
type CoordinatorState struct {
	// Seq is the sender's last assigned message sequence number.
	Seq uint64
	// PeerAcked is the per-peer acknowledgement watermark, in fan-out
	// order.
	PeerAcked []uint64
	// IntIndex is the capture index within the current epoch (P1
	// record dedupe key).
	IntIndex uint32
	// Pending is the one list of shipped-but-unacknowledged epochs,
	// oldest first; Released/HaveReleased is the output-release
	// watermark.
	Pending      []PendingAckState
	Released     uint64
	HaveReleased bool
	// Archive is the retained epoch-replay tail, oldest first.
	Archive []SyncEpoch
	Stats   Stats
}

// PendingInterrupt is one buffered [E, Int] record, keyed by its
// capture index.
type PendingInterrupt struct {
	Index uint32
	Int   Interrupt
}

// PendingEnd is a received End's payload, read from the header of the
// frame that carried it: the cut coordinate and the coordinator's
// release watermark ride every End.
type PendingEnd struct {
	Seq          uint64
	Digest       uint64
	Halted       bool
	Cut          uint64
	Released     uint64
	HaveReleased bool
}

// PendingEpochState is one epoch's received-but-unprocessed frame
// parts on a backup.
type PendingEpochState struct {
	Epoch  uint64
	Ints   []PendingInterrupt
	HasTme bool
	Tme    uint32
	HasEnd bool
	End    PendingEnd
	// Verbatim, when non-nil, replaces the fields above: the epoch
	// replays exactly as a new coordinator's sync dictates.
	Verbatim *SyncEpoch
}

// BackupState captures a backup engine.
type BackupState struct {
	Index     int
	Completed uint64
	Promoted  bool
	Failed    bool
	Withdrawn bool
	Done      bool
	Halted    bool
	BootTOD   uint32
	// Pending holds the per-epoch frame-part buffers, ascending by epoch.
	Pending []PendingEpochState
	// Archive is the delivery history retained for downstream resync.
	Archive []SyncEpoch
	Stats   Stats
	// Coordinator is the promoted backup's coordination state (nil
	// before promotion).
	Coordinator *CoordinatorState
}

// Interrupt aliases the hypervisor's buffered-interrupt record for
// capture encoding convenience.
type Interrupt = hypervisor.Interrupt

// capture deep-copies a coordinator.
func (c *coordinator) capture() CoordinatorState {
	s := CoordinatorState{
		Seq:          c.s.seq,
		IntIndex:     c.intIndex,
		Released:     c.released,
		HaveReleased: c.haveReleased,
		Stats:        *c.stats,
	}
	for _, p := range c.s.peers {
		s.PeerAcked = append(s.PeerAcked, p.acked)
	}
	for _, r := range c.pend {
		s.Pending = append(s.Pending, PendingAckState{Epoch: r.epoch, Seq: r.seq})
	}
	s.Archive = c.archive.capture()
	return s
}

// capture returns the archive's retained epochs, oldest first, with
// deep-copied interrupt payloads.
func (a *epochArchive) capture() []SyncEpoch {
	if a == nil || len(a.entries) == 0 {
		return nil
	}
	out := a.since(0)
	for i := range out {
		out[i].Ints = copyInterrupts(out[i].Ints)
	}
	return out
}

// copyInterrupts deep-copies an interrupt list (DMA payloads included).
func copyInterrupts(ints []Interrupt) []Interrupt {
	if len(ints) == 0 {
		return nil
	}
	out := make([]Interrupt, len(ints))
	for i, iv := range ints {
		out[i] = iv
		if len(iv.Data) > 0 {
			out[i].Data = append([]byte(nil), iv.Data...)
		}
	}
	return out
}

// CaptureState snapshots the primary engine's protocol state.
func (pr *Primary) CaptureState() CoordinatorState { return pr.coord.capture() }

// CaptureState snapshots a backup engine's protocol state.
func (bk *Backup) CaptureState() BackupState {
	s := BackupState{
		Index:     bk.index,
		Completed: bk.completed,
		Promoted:  bk.promoted,
		Failed:    bk.failed,
		Withdrawn: bk.withdrawn,
		Done:      bk.done,
		Halted:    bk.halted,
		BootTOD:   bk.BootTOD,
		Stats:     bk.Stats,
	}
	epochs := make([]uint64, 0, len(bk.pending))
	for e := range bk.pending {
		epochs = append(epochs, e)
	}
	sort.Slice(epochs, func(i, j int) bool { return epochs[i] < epochs[j] })
	for _, e := range epochs {
		r := bk.pending[e]
		pe := PendingEpochState{Epoch: e}
		idxs := make([]int, 0, len(r.ints))
		for k := range r.ints {
			idxs = append(idxs, int(k))
		}
		sort.Ints(idxs)
		for _, k := range idxs {
			iv := r.ints[uint32(k)]
			if len(iv.Data) > 0 {
				iv.Data = append([]byte(nil), iv.Data...)
			}
			pe.Ints = append(pe.Ints, PendingInterrupt{Index: uint32(k), Int: iv})
		}
		if r.hasTme {
			pe.HasTme, pe.Tme = true, r.tme
		}
		if h := r.end; h.HasEnd {
			pe.HasEnd = true
			pe.End = PendingEnd{
				Seq: h.Seq, Digest: h.Digest, Halted: h.Halted, Cut: h.Cut,
				Released: h.Released, HaveReleased: h.HaveReleased,
			}
		}
		if r.verbatim != nil {
			v := *r.verbatim
			v.Ints = copyInterrupts(v.Ints)
			pe.Verbatim = &v
		}
		s.Pending = append(s.Pending, pe)
	}
	s.Archive = bk.archive.capture()
	if bk.coord != nil {
		cs := bk.coord.capture()
		s.Coordinator = &cs
	}
	return s
}
