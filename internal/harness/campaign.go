package harness

import (
	"fmt"

	"repro/internal/replication"
	"repro/internal/session"
	"repro/internal/sim"
)

// CampaignResult summarizes one failure-injection run.
type CampaignResult struct {
	FailAt     sim.Time
	Promoted   bool
	Checksum   uint32
	Consistent bool
	Detail     string
}

// FailureCampaign sweeps primary failstop times across a workload's
// duration and verifies, for each, the paper's §2 guarantees:
//
//  1. the workload completes (the backup takes over when needed);
//  2. the guest-visible result equals the bare single-machine result
//     (instructions executed by the backup extend the primary's
//     sequence);
//  3. the environment is consistent with one processor: the disk log
//     contains, per block, only identical-content repetitions.
//
// Returns one result per injection time. times values at or beyond the
// workload's natural completion exercise the no-failover path.
// Each injection is an independent replicated simulation, so the sweep
// fans across scale.Workers goroutines; results keep the order of times.
func FailureCampaign(scale Scale, kind uint32, el uint64, proto replication.Protocol, times []sim.Time) []CampaignResult {
	w := scale.workload(kind)
	bare := RunBare(1, w, scale.Disk)
	out := make([]CampaignResult, len(times))
	scale.forEach(len(times), func(i int) {
		at := times[i]
		r := CampaignResult{FailAt: at}
		repl := RunReplicated(session.Options{
			Seed: 1, Program: session.WorkloadProgram(w), Disk: scale.Disk,
			EpochLength: el, Protocol: proto,
			FailPrimaryAt: at,
		})
		r.Promoted = repl.Promoted
		r.Checksum = repl.Guest.Checksum
		switch {
		case repl.Guest.Panic != 0:
			r.Detail = fmt.Sprintf("guest panic %#x", repl.Guest.Panic)
		case repl.Guest.Checksum != bare.Guest.Checksum:
			r.Detail = fmt.Sprintf("checksum %#x != bare %#x", repl.Guest.Checksum, bare.Guest.Checksum)
		default:
			r.Consistent = true
		}
		out[i] = r
	})
	return out
}

// CampaignTimes builds n injection times spread over [lo, hi) with a
// deterministic low-discrepancy pattern (so sweeps cover boundaries,
// mid-epochs, and I/O windows without a fixed stride's aliasing).
func CampaignTimes(lo, hi sim.Time, n int) []sim.Time {
	out := make([]sim.Time, 0, n)
	span := float64(hi - lo)
	x := 0.0
	const golden = 0.6180339887498949
	for i := 0; i < n; i++ {
		x += golden
		x -= float64(int(x))
		out = append(out, lo+sim.Time(x*span))
	}
	return out
}
