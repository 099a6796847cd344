package replication

// This file is the replication layer's byte format — the counterpart of
// machine.State/hypervisor.State one level up, and the only place that
// knows it. A session checkpoint embeds it so a restored run can be
// VERIFIED against the original bit for bit: the epoch archive tail a
// coordinator retains for resynchronization, the sequence and
// acknowledgement watermarks and pending-epoch list that drive every
// wait, release and archive trim, and the per-epoch buffers a backup
// accumulates between its own epoch boundary and the coordinator's
// frames.
//
// Nothing decodes these bytes — restore replays the run and compares a
// fresh encoding against the saved one — so there is no staging type:
// the engines write their live fields in one hop, map-shaped state in
// ascending key order. What the comparison needs is that equal states
// encode equal and every encoded field moves the bytes
// (TestCoordinatorBackupStateCodec).

import (
	"maps"
	"slices"

	"repro/internal/snapshot"
)

// EncodeState appends the primary engine's protocol state to w.
func (pr *Primary) EncodeState(w *snapshot.Writer) { pr.coord.encode(w) }

// EncodeState appends a backup engine's protocol state to w, including
// the coordinator it runs once promoted.
func (bk *Backup) EncodeState(w *snapshot.Writer) {
	w.Int(bk.index)
	w.U64(bk.completed)
	w.Bool(bk.promoted)
	w.Bool(bk.failed)
	w.Bool(bk.withdrawn)
	w.Bool(bk.done)
	w.Bool(bk.halted)
	w.U32(bk.BootTOD)
	w.U32(uint32(len(bk.pending)))
	for _, e := range slices.Sorted(maps.Keys(bk.pending)) {
		r := bk.pending[e]
		w.U64(e)
		w.U32(uint32(len(r.ints)))
		for _, k := range slices.Sorted(maps.Keys(r.ints)) {
			w.U32(k)
			r.ints[k].Encode(w)
		}
		w.Bool(r.hasTme)
		w.U32(r.tme)
		// The End's payload, read from the header that carried it (all
		// zero until one arrives).
		w.Bool(r.end.HasEnd)
		w.U64(r.end.Seq)
		w.U64(r.end.Digest)
		w.Bool(r.end.Halted)
		w.U64(r.end.Cut)
		w.U64(r.end.Released)
		w.Bool(r.end.HaveReleased)
		w.Bool(r.verbatim != nil)
		if r.verbatim != nil {
			r.verbatim.encode(w)
		}
	}
	bk.archive.encode(w)
	bk.Stats.encode(w)
	w.Bool(bk.coord != nil)
	if bk.coord != nil {
		bk.coord.encode(w)
	}
}

// encode appends a live coordinator (the primary's, or a promoted
// backup's): the sender's sequence number and per-peer acknowledgement
// watermarks in fan-out order, the capture index, the pending list, the
// release watermark, the archive and the owning engine's counters.
func (c *coordinator) encode(w *snapshot.Writer) {
	w.U64(c.s.seq)
	w.U32(uint32(len(c.s.peers)))
	for _, p := range c.s.peers {
		w.U64(p.acked)
	}
	w.U32(c.intIndex)
	w.U32(uint32(len(c.pend)))
	for _, pe := range c.pend {
		w.U64(pe.epoch)
		w.U64(pe.seq)
	}
	w.U64(c.released)
	w.Bool(c.haveReleased)
	c.archive.encode(w)
	c.stats.encode(w)
}

// encode appends the retained epochs, oldest first.
func (a *epochArchive) encode(w *snapshot.Writer) {
	var entries []SyncEpoch
	if a != nil {
		entries = a.since(0)
	}
	w.U32(uint32(len(entries)))
	for i := range entries {
		entries[i].encode(w)
	}
}

func (e *SyncEpoch) encode(w *snapshot.Writer) {
	w.U64(e.Epoch)
	w.U32(e.Tme)
	w.U64(e.Digest)
	w.Bool(e.Halted)
	w.U32(uint32(len(e.Ints)))
	for _, i := range e.Ints {
		i.Encode(w)
	}
}

func (s *Stats) encode(w *snapshot.Writer) {
	w.U64(s.Epochs)
	w.U64(s.MessagesSent)
	w.U64(s.BytesSent)
	w.U64(s.AcksReceived)
	w.U64(s.AckWaits)
	w.I64(int64(s.AckWaitTime))
	w.U64(s.IOGateWaits)
	w.I64(int64(s.IOGateWaitTime))
	w.U64(s.IntsForwarded)
	w.U64(s.IntsReceived)
	w.U64(s.Divergences)
	w.U64(s.PeerTimeouts)
	w.U64(s.PromotedAtEpoch)
	w.I64(int64(s.PromotedAtTime))
	w.Bool(s.Promoted)
	w.U64(s.UncertainSynth)
	w.U64(s.OutputsReleased)
}
