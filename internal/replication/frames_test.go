package replication

import (
	"testing"

	"repro/internal/platform"
	"repro/internal/sim"
)

// TestCoalescedFramesReturn: after a coalescing coordinator's only backup
// failstops, every frame the coordinator takes from its pools comes
// back. The transmit process still batches the frames that queue behind
// a set-up sleep and sends each batch, at its full size, into the
// severed link; with no receiver left to release them, the batch's
// frames go straight back to the pool. What stays out at the end is
// exactly what the dead backup's inbox holds, and Reclaim takes that
// back too.
func TestCoalescedFramesReturn(t *testing.T) {
	cfg := platform.Config{}
	cfg.Hypervisor.EpochLength = 256
	mc := newMultiCluster(t, 1, cfg, Config{OutputCommit: OutputCommit{Enabled: true, Window: 8}}, guestCPU(20_000), 1)
	pri, bak := mc.pri, mc.baks[0]
	mc.failNode(1, 2*sim.Millisecond)
	mc.run(t, 10*sim.Second)
	if !mc.c.Nodes[0].HV.Halted() {
		t.Fatal("the primary did not finish")
	}
	if pri.Stats.Epochs < 100 || pri.downs[0].TX.Stats.MessagesDropped < 10 {
		t.Fatalf("%d epochs, %d messages into the severed link: the test must exercise the zero-receiver fan-out at length",
			pri.Stats.Epochs, pri.downs[0].TX.Stats.MessagesDropped)
	}

	// The frames the dead backup's receiver never consumed: one per
	// message, plus a batch's inner frames.
	held := 0
	for _, m := range bak.ups[0].RX.Inbox.Drain() {
		held++
		if b, ok := m.Payload.(*epochBatch); ok {
			held += len(b.Recs)
		}
	}
	a := pri.arena // the coordinator's epoch frames and batches
	if out := a.Outstanding(); out != held {
		t.Errorf("%d of the coordinator's frames are out of their pools after the run, but the dead backup's inbox holds %d", out, held)
	}
	a.Reclaim()
	if out := a.Outstanding(); out != 0 {
		t.Errorf("%d frames out of their pools after Reclaim", out)
	}
	// The dead backup acknowledged nothing after its failstop: a
	// receiver woken by a delivery takes no message once its replica has
	// failed, so no ack of its own arena went into the severed link.
	if out, dropped := bak.arena.acks.Outstanding(), bak.ups[0].TX.Stats.MessagesDropped; out != 0 || dropped != 0 {
		t.Errorf("the failed backup has %d acks out of its pool and %d dropped on its ack link, want none", out, dropped)
	}
}
