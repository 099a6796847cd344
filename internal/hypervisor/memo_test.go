package hypervisor_test

// The run memo (machine/memo.go) seen from above the hypervisor: the
// polled pair of the root BenchmarkPolledEpochPair — a primary and a
// backup under output commit whose guest does nothing but poll NIC
// status through MMIO, which is the memo's case — must run every epoch
// to the same boundary, the same statistics and the same virtual instant
// whether Run answers the polls from the memo or executes them.

import (
	"fmt"
	"slices"
	"testing"

	"repro/internal/hypervisor"
	"repro/internal/machine"
	"repro/internal/obs"
	"repro/internal/platform"
	"repro/internal/replication"
	"repro/internal/sim"
)

// polledRun is what one run of the pair leaves behind.
type polledRun struct {
	// boundaries has one line per epoch boundary either node reported.
	boundaries []string
	hv         [2]hypervisor.Stats
	m          [2]machine.Stats
	tlb        [2]machine.TLBStats
	memo       [2]machine.MemoStats
	end        sim.Time
}

// runPolledPair runs the pair until the primary has committed the given
// number of epochs. at, when set, runs on the primary's process at every
// commit.
func runPolledPair(t *testing.T, mc machine.Config, epochs uint64, at func(epoch uint64, n *platform.Node)) polledRun {
	t.Helper()
	k := sim.NewKernel(1)
	defer k.Shutdown()
	rc := replication.Config{
		Protocol:      replication.ProtocolNew,
		OutputCommit:  replication.OutputCommit{Enabled: true, Window: 16, Adaptive: true},
		DetectTimeout: 50 * sim.Millisecond,
	}
	pair, reps := wireReplicas(k, 2, mc, hypervisor.Config{
		EpochLength: 256, AdaptiveBoundary: true, ResidentEmulation: true,
	}, rc, 1) // the request never comes
	pri, bak := reps[0], reps[1]

	var run polledRun
	note := func(who string, node int, epoch uint64, at sim.Time, extra any) {
		hv := pair.Nodes[node].HV
		run.boundaries = append(run.boundaries, fmt.Sprintf("%s epoch %d at %d: instr %d digest %016x %v",
			who, epoch, at, hv.GuestInstructions(), hv.Digest(), extra))
	}
	pri.Observer = func(ev obs.Event) {
		if ev.Kind != obs.EventEpochCommitted {
			return
		}
		note("commit", ev.Node, ev.Epoch, ev.Time, ev.Tme)
		if at != nil {
			at(ev.Epoch, pair.Nodes[0])
		}
		if ev.Epoch+1 == epochs {
			k.Stop()
		}
	}
	bak.Observer = func(ev obs.Event) {
		if ev.Kind == obs.EventBackupEpoch {
			note("follow", ev.Node, ev.Epoch, ev.Time, ev.DigestMatch)
		}
	}
	bak.StartReceivers(k)
	k.Start("primary", pri.Run)
	k.Start("backup", bak.Run)
	run.end = k.Run()
	for i, n := range pair.Nodes {
		run.hv[i], run.m[i], run.tlb[i], run.memo[i] = n.HV.Stats, n.M.Stats, n.M.TLB.Stats, n.M.MemoStats()
	}
	return run
}

func (a polledRun) mustEqual(t *testing.T, b polledRun, what string) {
	t.Helper()
	if !slices.Equal(a.boundaries, b.boundaries) {
		for i := range min(len(a.boundaries), len(b.boundaries)) {
			if a.boundaries[i] != b.boundaries[i] {
				t.Fatalf("%s: boundary %d differs:\n %s\n %s", what, i, a.boundaries[i], b.boundaries[i])
			}
		}
		t.Fatalf("%s: %d boundaries against %d", what, len(a.boundaries), len(b.boundaries))
	}
	if a.hv != b.hv {
		t.Errorf("%s: hypervisor stats differ:\n %+v\n %+v", what, a.hv, b.hv)
	}
	if a.m != b.m || a.tlb != b.tlb {
		t.Errorf("%s: machine stats differ:\n %+v %+v\n %+v %+v", what, a.m, a.tlb, b.m, b.tlb)
	}
	if a.end != b.end {
		t.Errorf("%s: ended at %d against %d", what, a.end, b.end)
	}
}

// TestPolledPairMemoTransparent: 200 epochs with the memo and without
// (Config.NoTraces, the reference arm, runs without it).
func TestPolledPairMemoTransparent(t *testing.T) {
	const epochs = 200
	on := runPolledPair(t, machine.Config{}, epochs, nil)
	off := runPolledPair(t, machine.Config{NoTraces: true}, epochs, nil)
	on.mustEqual(t, off, "memo on against off")
	if len(on.boundaries) < 2*epochs-20 {
		t.Fatalf("%d boundaries from %d epochs of a pair", len(on.boundaries), epochs)
	}
	for i := range on.memo {
		if on.memo[i].Hits*2 < on.memo[i].Calls {
			t.Errorf("node %d: the poll mostly missed the memo: %+v", i, on.memo[i])
		}
		if off.memo[i].Hits != 0 || off.memo[i].Records != 0 {
			t.Errorf("node %d: NoTraces used the memo: %+v", i, off.memo[i])
		}
	}
}

// TestPolledPairRestoreMidSpin: the primary captures itself between two
// polls — machine and hypervisor — restores the capture, and goes on.
// RestoreState drops the memo with the rest of the derived state; the
// run must end where the uninterrupted one does, and must find its way
// back into the memo.
func TestPolledPairRestoreMidSpin(t *testing.T) {
	const epochs, saveAt = 200, 60
	straight := runPolledPair(t, machine.Config{}, epochs, nil)
	var hitsAtSave uint64
	restored := runPolledPair(t, machine.Config{}, epochs, func(epoch uint64, n *platform.Node) {
		if epoch != saveAt {
			return
		}
		hitsAtSave = n.M.MemoStats().Hits
		if err := n.M.RestoreState(n.M.CaptureState()); err != nil {
			t.Fatal(err)
		}
		if err := n.HV.RestoreState(n.HV.CaptureState()); err != nil {
			t.Fatal(err)
		}
	})
	straight.mustEqual(t, restored, "uninterrupted against restored")
	if hitsAtSave == 0 || restored.memo[0].Hits < 2*hitsAtSave {
		t.Errorf("primary: %d memo hits at the save, %+v at the end", hitsAtSave, restored.memo[0])
	}
}
