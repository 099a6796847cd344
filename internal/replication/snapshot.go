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

import "repro/internal/snapshot"

// EncodeState appends the replica's protocol state to w. A replica that
// never followed (node 0) encodes only its coordinator; any other encodes
// its following state and then the coordinator it runs once promoted.
func (r *Replica) EncodeState(w *snapshot.Writer) {
	if len(r.ups) == 0 {
		r.coord.encode(w)
		return
	}
	w.Int(r.index)
	w.U64(r.completed)
	w.Bool(r.promoted)
	w.Bool(r.failed)
	w.Bool(r.withdrawn)
	w.Bool(r.done)
	w.Bool(r.halted)
	w.U32(r.BootTOD)
	w.U32(uint32(len(r.pending)))
	r.epochs = sortedKeys(r.pending, r.epochs)
	for _, e := range r.epochs {
		er := r.pending[e]
		w.U64(e)
		w.U32(uint32(len(er.ints)))
		r.order = sortedKeys(er.ints, r.order)
		for _, k := range r.order {
			w.U32(k)
			i := er.ints[k]
			i.Code(w.Codec())
		}
		w.Bool(er.hasTme)
		w.U32(er.tme)
		// The End's payload, read from the header that carried it (all
		// zero until one arrives).
		w.Bool(er.end.HasEnd)
		w.U64(er.end.Seq)
		w.U64(er.end.Digest)
		w.Bool(er.end.Halted)
		w.U64(er.end.Cut)
		w.U64(er.end.Released)
		w.Bool(er.end.HaveReleased)
		w.Bool(er.verbatim != nil)
		if er.verbatim != nil {
			er.verbatim.encode(w)
		}
	}
	r.archive.encode(w)
	r.Stats.encode(w)
	w.Bool(r.coord != nil)
	if r.coord != nil {
		r.coord.encode(w)
	}
}

// encode appends a live coordinator (node 0's, or a promoted
// replica's): the sender's sequence number and per-peer acknowledgement
// watermarks in fan-out order, the capture index, the pending list, the
// release watermark, the archive and the owning replica's counters.
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

// encode appends the retained epochs, oldest first, read in place.
func (a *epochArchive) encode(w *snapshot.Writer) {
	if a == nil {
		w.U32(0)
		return
	}
	w.U32(uint32(a.n))
	a.each(0, func(se SyncEpoch) { se.encode(w) })
}

func (e *SyncEpoch) encode(w *snapshot.Writer) {
	w.U64(e.Epoch)
	w.U32(e.Tme)
	w.U64(e.Digest)
	w.Bool(e.Halted)
	w.U32(uint32(len(e.Ints)))
	for k := range e.Ints {
		e.Ints[k].Code(w.Codec())
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
