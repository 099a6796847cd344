package replication

// This file holds the wiring a LATE-JOINING backup needs: the paper's
// §5 repair story assumes a failed processor is eventually repaired and
// reintegrated as a new backup, which requires splicing a fresh peer
// into the running protocol engines. The joiner's machine state arrives
// by state transfer (the session layer's AddBackup); here the existing
// engines learn about the new channel.

// AddPeer adds a late-joining backup to the primary's fan-out: every
// message sent from now on also goes to p, and acknowledgement tracking
// (gate or release) includes it.
func (pr *Primary) AddPeer(p Peer) { pr.coord.attachPeer(p) }

// AddDownstream registers a lower-priority late joiner with this
// backup: if (or once) this backup is promoted, the joiner is part of
// its coordination fan-out. Registering a downstream also switches on
// the delivery archive (a backup with downstream peers must retain
// replay history to resynchronize them at promotion).
func (bk *Backup) AddDownstream(p Peer) {
	bk.downs = append(bk.downs, p)
	if bk.coord != nil {
		bk.coord.attachPeer(p)
	}
}

// SetResumePoint marks the first epoch this backup will process — used
// by a late joiner whose transferred state already reflects every
// boundary before it. Call before Run.
func (bk *Backup) SetResumePoint(completed uint64) { bk.completed = completed }

// Downstreams reports how many lower-priority peers this backup would
// coordinate after promotion.
func (bk *Backup) Downstreams() int { return len(bk.downs) }
