package harness

import (
	"testing"

	"repro/internal/guest"
	"repro/internal/machine"
	"repro/internal/replication"
	"repro/internal/scsi"
	"repro/internal/session"
)

// ablationOptions builds a replicated run with a SMALL, NONDETERMINISTIC
// TLB (random replacement, per-chip seeds) under the memory-stride
// workload — the §3.2 hazard scenario.
func ablationOptions(noTakeover bool, div *int) session.Options {
	return session.Options{
		Seed:        1,
		Program:     session.WorkloadProgram(guest.MemoryStride(20000)),
		Disk:        scsi.DiskConfig{},
		EpochLength: 2048,
		Protocol:    replication.ProtocolOld,
		Machine: machine.Config{
			TLBSize:   8,
			TLBPolicy: "random",
		},
		NoTLBTakeover: noTakeover,
		OnDivergence: func(epoch uint64, primary, backup uint64) {
			*div++
		},
	}
}

// TestTLBTakeoverAblation reproduces the paper's §3.2 finding end to
// end:
//
//   - WITHOUT the hypervisor's TLB takeover, nondeterministic TLB
//     replacement makes the two replicas' instruction streams diverge
//     (the guests' software miss handlers run at different points);
//   - WITH the takeover (the paper's fix), the same nondeterministic
//     hardware is invisible and the replicas stay in lockstep.
func TestTLBTakeoverAblation(t *testing.T) {
	// Fix ON (default): zero divergences despite random TLBs.
	divOn := 0
	resOn := RunReplicated(ablationOptions(false, &divOn))
	if resOn.Guest.Panic != 0 {
		t.Fatalf("guest panic %#x with takeover", resOn.Guest.Panic)
	}
	if divOn != 0 {
		t.Errorf("takeover ON: %d divergences, want 0 (the §3.2 fix must hide TLB nondeterminism)", divOn)
	}
	if resOn.HVStats.TLBFills == 0 {
		t.Error("takeover ON: no hypervisor TLB fills — the stride workload should miss constantly")
	}

	// Fix OFF: divergence is detected (the hazard is real).
	divOff := 0
	resOff := RunReplicated(ablationOptions(true, &divOff))
	_ = resOff
	if divOff == 0 {
		t.Error("takeover OFF: no divergences detected — the hazard did not manifest")
	}
}

// TestTLBTakeoverDeterministicPolicyNeedsNoFix: with a deterministic
// (LRU) TLB, even the no-takeover configuration stays in lockstep —
// isolating the ROOT CAUSE to replacement nondeterminism, as the paper
// does.
func TestTLBTakeoverDeterministicPolicyNeedsNoFix(t *testing.T) {
	div := 0
	o := ablationOptions(true, &div)
	o.Machine.TLBPolicy = "lru"
	res := RunReplicated(o)
	if res.Guest.Panic != 0 {
		t.Fatalf("guest panic %#x", res.Guest.Panic)
	}
	if div != 0 {
		t.Errorf("LRU TLB without takeover diverged %d times; replacement policy is not the cause?", div)
	}
}
