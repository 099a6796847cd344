package chaos

import (
	"context"
	"testing"

	hft "repro"
)

// TestRegressionCampaignFinds pins the bugs the first full campaign
// sweep caught, as exact schedules. Each reproduced a replicated-state
// divergence before its fix:
//
//   - zombie epoch commit: a coordinator failstopped mid-boundary
//     (between the Tme send and the commit hook) under the §4.3
//     protocol still delivered, archived, and reported the epoch, so
//     AddBackup captured its state from a timeline the replica set
//     never received (coordinator.run now re-checks stopped() after
//     each boundary send);
//   - in-flight message loss: failstop severed frames already on the
//     wire, so a backup on a degraded (slow) link could miss an epoch
//     that a fast-linked peer completed, and the promoted backup's
//     post-failover line diverged irreconcilably from the peer's
//     (netsim links now deliver in-flight messages after Disconnect);
//   - joiner with an empty NIC port: a backup reintegrated mid-load
//     started with a fresh (empty) NIC port, so when a later failstop
//     promoted it, requests that had been pending across the state
//     transfer were lost and their replies never emitted — a VService
//     violation (AddBackup now clones the acting coordinator's port
//     into the joiner).
func TestRegressionCampaignFinds(t *testing.T) {
	ms := func(d int64) hft.Duration { return hft.Duration(d) * hft.Millisecond }
	cases := []struct {
		name string
		s    Schedule
	}{
		{"zombie-commit-before-addbackup", Schedule{
			Seed: 1589839639, Workload: "cpu", Epoch: 1024,
			Protocol: hft.ProtocolNew, Link: "atm", Backups: 2,
			Steps: []Step{
				{At: Coord{Time: ms(9)}, Op: OpFailPrimary},
				{At: Coord{Commit: 19}, Op: OpAddBackup},
			},
		}},
		{"inflight-loss-asymmetric-links", Schedule{
			Seed: 468989957, Workload: "cpu", Epoch: 4096,
			Protocol: hft.ProtocolNew, Link: "atm", Backups: 2,
			Steps: []Step{
				{At: Coord{Commit: 4}, Op: OpLink, Bandwidth: 2000000, Latency: 500 * hft.Microsecond},
				{At: Coord{Commit: 7}, Op: OpAddBackup},
				{At: Coord{Time: ms(20)}, Op: OpFailPrimary},
			},
		}},
		{"failstop-cascade-then-join", Schedule{
			Seed: 46778682, Workload: "cpu", Epoch: 1024,
			Protocol: hft.ProtocolNew, Link: "ethernet", Backups: 2,
			Steps: []Step{
				{At: Coord{Time: ms(16)}, Op: OpFailBackup, Backup: 2},
				{At: Coord{Commit: 5}, Op: OpFailPrimary},
				{At: Coord{Commit: 16}, Op: OpAddBackup},
			},
		}},
		{"window-failstop-uncommitted-epochs", Schedule{
			// Output-commit engine with a deep pipeline on a
			// high-latency link: acknowledgments lag execution by
			// several epochs (the 500 us each-way degradation puts the
			// window 5+ deep), then the primary failstops with those
			// epochs' deferred output still retained. Exactly-once must
			// hold: the promoted backup's flush emits the uncommitted
			// tail once, the device ordinal dedup drops what the dead
			// primary already released, and the reply transcript stays
			// byte-identical to bare.
			Seed: 7, Workload: "serve", Epoch: 1024,
			Protocol: hft.ProtocolOld, Link: "ethernet", Backups: 1,
			Window: 8, Adaptive: true,
			Steps: []Step{
				{At: Coord{Commit: 2}, Op: OpLink, Bandwidth: 10000000, Latency: 500 * hft.Microsecond},
				{At: Coord{Commit: 24}, Op: OpFailPrimary},
			},
		}},
		{"serve-join-then-promote-joiner", Schedule{
			// Mid-load failover, reintegration under live client load
			// (with a mid-load checkpoint round trip for good measure),
			// then a failstop of the promoted coordinator so the JOINER
			// must finish the request stream. Before AddBackup cloned
			// the acting coordinator's NIC port into the joiner, the
			// requests pending across the state transfer vanished here
			// and the reply transcript came up short.
			Seed: 1, Workload: "serve", Epoch: 1024,
			Protocol: hft.ProtocolOld, Link: "ethernet", Backups: 1,
			Steps: []Step{
				{At: Coord{Time: ms(6)}, Op: OpFailPrimary},
				{At: Coord{Commit: 13}, Op: OpAddBackup},
				{At: Coord{Commit: 15}, Op: OpSaveRestore},
				{At: Coord{Commit: 17}, Op: OpFailBackup, Backup: 1},
			},
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if rep := Execute(tc.s); rep.Failed() {
				t.Errorf("schedule %v violated %v", tc.s, rep.Violation)
			}
		})
	}
}

// TestUnansweredRequestEndsWithTheRun replays the shrunk scenario of
// shard 2723 of fleet seed 7, which loses the console output: one
// request is never answered, and its client retransmits every 2 ms for
// as long as the simulation runs. The run must end when the cluster's
// last process retires, not at the session's 20,000 s bound, which took
// ten million retransmissions and over a second of host time.
func TestUnansweredRequestEndsWithTheRun(t *testing.T) {
	s := ScheduleAt(7, 2723)
	var err error
	if s.Steps, err = ParseScenario("run-to 13000000ns\nfail backup 1\nuntil-commit 20\nfail primary\n"); err != nil {
		t.Fatal(err)
	}
	shape, err := s.Shape()
	if err != nil {
		t.Fatal(err)
	}
	c, err := hft.NewCluster(s.ClusterOptions(shape)...)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	for _, st := range s.Steps {
		if _, err := advanceTo(c, st.At, maxVirtual); err != nil {
			t.Fatal(err)
		}
		if st.Op == OpFailPrimary {
			c.FailPrimary()
		} else if err := c.FailBackup(st.Backup); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := c.Wait(context.Background()); err != nil {
		t.Fatal(err)
	}
	lat, _ := c.ServiceLatencies()
	if lat.Answered == lat.Requests || lat.Retransmits >= 1000 {
		t.Fatalf("%d of %d requests answered with %d retransmissions; want one unanswered, under 1,000 retransmissions",
			lat.Answered, lat.Requests, lat.Retransmits)
	}
}
