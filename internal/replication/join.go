package replication

// This file holds the wiring a LATE-JOINING replica needs: the paper's
// §5 repair story assumes a failed processor is eventually repaired and
// reintegrated as a new backup, which requires splicing a fresh peer
// into the running protocol engines. The joiner's machine state arrives
// by state transfer (the session layer's AddBackup); here the existing
// engines learn about the new channel.

// AddDownstream registers a lower-priority late joiner with this
// replica: it joins the coordination fan-out at once if this replica
// coordinates, and at promotion otherwise — every message sent from then
// on also goes to p, and acknowledgement tracking (gate or release)
// includes it. Registering a downstream also switches on a following
// replica's delivery archive (it must retain replay history to
// resynchronize its downstream at promotion).
func (r *Replica) AddDownstream(p Peer) {
	r.downs = append(r.downs, p)
	if r.coord != nil {
		r.coord.attachPeer(p)
	}
}

// SetResumePoint marks the first epoch this replica will process — used
// by a late joiner whose transferred state already reflects every
// boundary before it. Call before Run.
func (r *Replica) SetResumePoint(completed uint64) { r.completed = completed }
