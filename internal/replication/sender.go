package replication

import (
	"repro/internal/netsim"
	"repro/internal/sim"
)

// Peer bundles the two directions of the channel to one counterpart:
// TX carries protocol messages out, RX returns acknowledgements.
type Peer struct {
	TX *netsim.Link
	RX *netsim.Link
}

// sender fans protocol messages out to a set of backups and tracks
// acknowledgements per peer, for node 0 and for a promoted replica that
// continues coordinating further backups (the t-fault-tolerant
// generalization the paper calls straightforward).
type sender struct {
	peers []*peerState
	seq   uint64
	stats *Stats
	// peerTimeout bounds how long an acknowledgement wait may block on
	// one live-looking peer before that peer is declared failed and
	// excluded — the sender-side mirror of the backups' coordinator
	// failure detection, needed for liveness when a peer is partitioned
	// or silently stops acknowledging (its link is not Down, so the
	// Down-skip below never fires). Zero means wait forever (the
	// paper's reliable-channel assumption).
	peerTimeout sim.Time
}

type peerState struct {
	peer  Peer
	acked uint64
	// dead marks a peer excluded by the acknowledgement-liveness
	// timeout: it stopped acking while its channel stayed up. A dead
	// peer still receives every message (it is only excluded from the
	// gates), so if it later acknowledges everything outstanding it is
	// resurrected — it provably holds the full stream.
	dead bool
	// seenAcked/progressAt implement the liveness timeout: the last
	// acked watermark observed by a wait tick, and the virtual time of
	// the last observed PROGRESS (zero: not yet observed). A peer is
	// declared dead only after peerTimeout of ack silence, never merely
	// because one wait lasted long while it was steadily catching up.
	seenAcked  uint64
	progressAt sim.Time
}

// excluded reports whether a peer no longer gates progress.
func (p *peerState) excluded() bool { return p.dead || p.peer.TX.Down() }

func newSender(peers []Peer, stats *Stats) *sender {
	s := &sender{stats: stats}
	for _, p := range peers {
		s.peers = append(s.peers, &peerState{peer: p})
	}
	return s
}

// fanCursor is one fan-out in progress, a peer at a time: it transmits a
// sequenced wire message to every peer, and its caller's step sleeps the
// I/O controller set-up cost it returns per peer (§4.3: this cost is
// link-independent). The peer list is the sender's when the fan-out
// began: a peer attached meanwhile first hears the next message. The zero
// value is idle.
type fanCursor struct {
	stats   *Stats
	peers   []*peerState
	i       int
	payload any
	size    int
	// held is the sender's own reference to payload, released when the
	// fan-out ends (nil: none to release).
	held interface{ Release() }
}

// cursor begins a fan-out of payload; held, if not nil, is released when
// it ends.
func (s *sender) cursor(payload any, size int, held interface{ Release() }) fanCursor {
	return fanCursor{stats: s.stats, peers: s.peers, payload: payload, size: size, held: held}
}

// next sends the message to the next peer and returns the set-up cost to
// sleep before the one after; false once every peer has it or the
// coordinator stopped (a failstop landing mid-fan-out ends it: the
// remaining peers never receive the message), and the cursor is idle
// again.
func (f *fanCursor) next(stopped func() bool) (sim.Time, bool) {
	if f.i == len(f.peers) || stopped() {
		if f.held != nil {
			f.held.Release()
		}
		*f = fanCursor{}
		return 0, false
	}
	ps := f.peers[f.i]
	f.i++
	f.stats.MessagesSent++
	f.stats.BytesSent += uint64(f.size)
	ps.peer.TX.Send(f.payload, f.size)
	return ps.peer.TX.Config().SetupTime, true
}

// receivers counts the peers a message sent now would reach: one frame
// reference each. A link that goes down mid-fan-out drops its copy
// without releasing it, and the frame stays out of its pool until the
// arena reclaims it at teardown (see Arena.Reclaim).
func (s *sender) receivers() int32 {
	n := int32(0)
	for _, ps := range s.peers {
		if !ps.peer.TX.Down() {
			n++
		}
	}
	return n
}

// acknowledge records an acknowledgement from ps. A dead peer that has
// caught up with everything sent holds the full stream, so excluding it
// no longer protects anything: it is resurrected.
func (s *sender) acknowledge(ps *peerState, seq uint64) {
	s.stats.AcksReceived++
	if seq > ps.acked {
		ps.acked = seq
	}
	if ps.dead && ps.acked >= s.seq {
		ps.dead = false
		ps.progressAt = 0
	}
}

// minAcked returns the lowest acknowledged sequence number across live
// peers — the prefix of the stream every live peer provably holds. With
// no live peers it returns seq (nothing outstanding). Peers whose
// channel is down — or that were excluded by the liveness timeout — are
// skipped: a failstopped backup must not wedge the primary forever (the
// paper's model assumes failed backups are eventually replaced; here
// they are just excluded).
func (s *sender) minAcked() uint64 {
	min := s.seq
	for _, p := range s.peers {
		if !p.excluded() && p.acked < min {
			min = p.acked
		}
	}
	return min
}

// fullyAcked reports whether every live peer has acknowledged everything
// sent so far.
func (s *sender) fullyAcked() bool { return s.minAcked() == s.seq }

// checkLiveness applies the acknowledgement-liveness timeout from a wait
// tick: a peer silent for peerTimeout while its channel stays up is
// declared dead and excluded, so a partitioned peer cannot block the
// coordinator forever.
func (s *sender) checkLiveness(now sim.Time) {
	if s.peerTimeout <= 0 {
		return
	}
	for _, p := range s.peers {
		if p.excluded() || p.acked >= s.seq {
			continue
		}
		if p.progressAt == 0 || p.acked > p.seenAcked {
			// First observation, or the peer advanced since the last
			// tick: restart its silence clock.
			p.seenAcked, p.progressAt = p.acked, now
			continue
		}
		if now-p.progressAt >= s.peerTimeout {
			p.dead = true
			s.stats.PeerTimeouts++
		}
	}
}
