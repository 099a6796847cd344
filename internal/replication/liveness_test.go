package replication

import (
	"bytes"
	"testing"

	"repro/internal/platform"
	"repro/internal/scsi"
	"repro/internal/sim"
)

// TestAckLivenessTimeout: a peer whose acknowledgement link silently
// drops everything while staying up (so the Down-skip never fires) is
// excluded after PeerTimeout at every place the coordinator can block on
// it, the run still completes with the bare machine's console and disk,
// and once the peer's acknowledgements flow again and cover everything
// outstanding it is resurrected.
func TestAckLivenessTimeout(t *testing.T) {
	const (
		peerTimeout = 50 * sim.Millisecond
		silentFrom  = 2 * sim.Millisecond
		dropped     = 30 // acknowledgements lost before the link heals
		nOps        = 8
	)
	cfg := platform.Config{
		Disk: scsi.DiskConfig{ReadLatency: 200 * sim.Microsecond, WriteLatency: 250 * sim.Microsecond},
	}
	cfg.Hypervisor.EpochLength = 512
	guest := guestIO(2_000, nOps, 10, 512)
	wantConsole, _, bare := bareRun(t, 1, cfg, guest)

	for _, tc := range []struct {
		name    string
		proto   Protocol
		oc      OutputCommit
		barrier bool
		// blocked reads the time spent in the wait that must have sat
		// the silence out.
		blocked func(s Stats) sim.Time
	}{
		{name: "P2 boundary wait", proto: ProtocolOld,
			blocked: func(s Stats) sim.Time { return s.AckWaitTime }},
		{name: "§4.3 I/O gate", proto: ProtocolNew,
			blocked: func(s Stats) sim.Time { return s.IOGateWaitTime }},
		{name: "output-commit window", proto: ProtocolOld, oc: OutputCommit{Enabled: true, Window: 2},
			blocked: func(s Stats) sim.Time { return s.AckWaitTime }},
		{name: "join barrier", proto: ProtocolOld, oc: OutputCommit{Enabled: true, Window: 64}, barrier: true,
			blocked: func(s Stats) sim.Time { return s.AckWaitTime }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			mc := newMultiCluster(t, 1, cfg, Config{
				Protocol: tc.proto, OutputCommit: tc.oc, PeerTimeout: peerTimeout,
				// The coordinator stalls for PeerTimeout; the backups must
				// sit that out rather than declare it dead.
				DetectTimeout: 10 * sim.Second,
			}, guest, 2)
			mc.pri.SetJoinBarrier(tc.barrier)
			silent := mc.pri.coord.s.peers[1]
			var excludedAt sim.Time
			mc.k.At(silentFrom, func() { silent.peer.RX.DropNext(dropped) })
			// Sample the exclusion instant from the liveness tick's own clock.
			var poll func()
			poll = func() {
				if silent.dead && excludedAt == 0 {
					excludedAt = mc.k.Now()
				}
				if excludedAt == 0 {
					mc.k.After(sim.Millisecond, poll)
				}
			}
			mc.k.At(silentFrom, poll)
			mc.run(t, 100*sim.Second)

			st := mc.pri.Stats
			if st.PeerTimeouts != 1 {
				t.Fatalf("PeerTimeouts = %d, want 1", st.PeerTimeouts)
			}
			if got := tc.blocked(st); got < peerTimeout {
				t.Errorf("the %s blocked for %v in all, less than the timeout", tc.name, got)
			}
			if excludedAt < silentFrom+peerTimeout || excludedAt > silentFrom+2*peerTimeout {
				t.Errorf("peer excluded at %v, want within one timeout after %v of silence",
					excludedAt, peerTimeout)
			}
			if silent.peer.TX.Down() || silent.peer.RX.Down() {
				t.Error("the silent peer's channel went down; the test must exercise the timeout, not the Down-skip")
			}
			if got := silent.peer.RX.Stats.MessagesDropped; got != dropped {
				t.Errorf("ack link dropped %d messages, want %d", got, dropped)
			}
			if silent.dead {
				t.Errorf("peer acknowledged everything outstanding (acked %d of %d) but was not resurrected",
					silent.acked, mc.pri.coord.s.seq)
			}
			for i, node := range mc.c.Nodes {
				if !node.HV.Halted() {
					t.Errorf("node %d did not halt", i)
				}
			}
			for _, bak := range mc.baks {
				if bak.Promoted() || bak.Stats.Divergences != 0 {
					t.Errorf("backup promoted=%v divergences=%d", bak.Promoted(), bak.Stats.Divergences)
				}
			}
			if got := mc.c.Console.Output(); got != wantConsole {
				t.Errorf("console = %q, bare %q", got, wantConsole)
			}
			for blk := uint32(10); blk < 10+nOps; blk++ {
				if !bytes.Equal(mc.c.Disks[0].ReadBlockDirect(blk), bare.Disks[0].ReadBlockDirect(blk)) {
					t.Errorf("disk block %d differs from the bare run's", blk)
				}
			}
		})
	}
}
