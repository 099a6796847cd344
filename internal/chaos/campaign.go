package chaos

import (
	"encoding/binary"
	"fmt"
	"hash"
	"hash/fnv"
	"io"
	"math/rand"
	"slices"

	hft "repro"
	"repro/internal/free"
	"repro/internal/sched"
)

// CampaignOptions configures a campaign.
type CampaignOptions struct {
	// Runs is the number of schedules to generate and execute.
	Runs int
	// Seed derives every schedule: run i draws from a generator seeded
	// by mix(Seed, i), so any single run replays independently of
	// worker scheduling and of Runs.
	Seed int64
	// Log, when set, receives one-line progress (violations as found,
	// shrink results).
	Log io.Writer
	// Workers is the fan-out width on the work-stealing scheduler
	// (internal/sched): below 1 selects all cores. The report is
	// bit-identical at any width.
	Workers int
}

// RunResult is what a campaign keeps of every run: small, and
// deterministic at any worker count and on any host.
type RunResult struct {
	Shard int `json:"shard"`
	// Violation is the invariant violation, "" for a clean run.
	Violation string `json:"violation,omitempty"`
	// Metrics summarizes the run (virtual-time quantities only).
	Metrics Metrics `json:"metrics"`
}

// Aggregate is the fleet rollup of a campaign: what `hftbench -fleet`
// prints.
type Aggregate struct {
	Shards     int `json:"shards"`
	Violations int `json:"violations"`
	// Failovers counts backup promotions across the runs.
	Failovers int `json:"failovers"`
	// Commits / Instructions sum the per-run counters.
	Commits      uint64 `json:"commits"`
	Instructions uint64 `json:"instructions"`
	// VirtualTime sums per-run completion times — the denominator for
	// virtual epoch-commit throughput.
	VirtualTime hft.Duration `json:"virtual_time"`
	// BlackoutP50/P99/Max are nearest-rank percentiles of the failover
	// blackout across runs that failed over (zero if none did).
	BlackoutP50 hft.Duration `json:"blackout_p50"`
	BlackoutP99 hft.Duration `json:"blackout_p99"`
	BlackoutMax hft.Duration `json:"blackout_max"`
	// Digest fingerprints every run's result, its index and violation
	// included, so one committed value pins the whole fleet's outcome.
	Digest string `json:"digest"`
}

// ViolationReport is one failing run, possibly with its shrunk
// reproduction.
type ViolationReport struct {
	// Run is the campaign run index (replays as ScheduleAt(seed, Run)).
	Run int
	// Schedule/Report are the original failing run.
	Schedule Schedule
	Report   Report
	// Shrunk is the minimized reproduction (zero-valued if this
	// violation was beyond maxShrink).
	Shrunk ShrinkResult
	// Scenario is the emitted hftsim script for the smallest known
	// reproduction.
	Scenario string
}

// CampaignReport is a campaign's outcome and its two rollups.
type CampaignReport struct {
	// Results holds every run's result, slotted by run index.
	Results    []RunResult
	Violations []ViolationReport
	// Digest fingerprints what the runs did, not only that they held the
	// invariants: every run's completion time and Metrics (commits,
	// instructions, failovers, blackout), folded in run order. Two builds
	// that print the same digest for one seed ran the same campaign.
	Digest string
	// Aggregate is the fleet rollup of the same runs.
	Aggregate Aggregate
}

// Failed reports whether any run violated an invariant.
func (r CampaignReport) Failed() bool { return len(r.Violations) > 0 }

// runSeed derives run i's generator seed from the campaign seed —
// SplitMix64's finalizer, so neighboring indexes land far apart in the
// generator's state space.
func runSeed(seed int64, i int) int64 {
	z := uint64(seed) + uint64(i)*0x9E3779B97F4A7C15
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return int64((z ^ (z >> 31)) &^ (1 << 63))
}

// ScheduleAt reproduces campaign run i without running the campaign —
// the replay handle a violation report names.
func ScheduleAt(seed int64, i int) Schedule {
	rng, ok := rngs.Get()
	if !ok {
		rng = rand.New(rand.NewSource(0))
	}
	rng.Seed(runSeed(seed, i))
	s := Generate(rng)
	rngs.Put(rng)
	return s
}

// rngs holds ScheduleAt's idle generators: one lives per call, so it is
// borrowed for the call. Seed restores exactly the state NewSource gives
// for the same seed, so a recycled generator draws what a fresh one
// would.
var rngs free.Shelf[*rand.Rand]

// rollup folds every run's result, in run order, into the campaign
// digest and the fleet aggregate.
func rollup(results []RunResult) (string, Aggregate) {
	campaign, fleet := fnv.New64a(), fnv.New64a()
	var buf [8]byte
	put := func(h hash.Hash64, vs ...uint64) {
		for _, v := range vs {
			binary.LittleEndian.PutUint64(buf[:], v)
			h.Write(buf[:])
		}
	}
	agg := Aggregate{Shards: len(results)}
	var blackouts []hft.Duration
	for i := range results {
		r, m := &results[i], &results[i].Metrics
		if r.Violation != "" {
			agg.Violations++
		}
		agg.Failovers += m.Failovers
		agg.Commits += m.Commits
		agg.Instructions += m.Instructions
		agg.VirtualTime += m.Time
		if m.Failovers > 0 {
			blackouts = append(blackouts, m.Blackout)
		}
		put(campaign, uint64(m.Time), m.Commits, m.Instructions, uint64(m.Failovers), uint64(m.Blackout))
		put(fleet, uint64(r.Shard))
		fleet.Write([]byte(r.Violation))
		put(fleet, m.Commits, m.Instructions, uint64(m.Time), uint64(m.Failovers), uint64(m.Blackout))
	}
	if len(blackouts) > 0 {
		slices.Sort(blackouts)
		agg.BlackoutP50 = blackouts[(len(blackouts)-1)*50/100]
		agg.BlackoutP99 = blackouts[(len(blackouts)-1)*99/100]
		agg.BlackoutMax = blackouts[len(blackouts)-1]
	}
	agg.Digest = fmt.Sprintf("%016x", fleet.Sum64())
	return fmt.Sprintf("%016x", campaign.Sum64()), agg
}

// maxShrink bounds how many violations a campaign shrinks (shrinking
// costs up to shrinkBudget executions each; the rest are reported raw).
const maxShrink = 3

// RunCampaign generates and executes o.Runs schedules across the
// scheduler's workers, keeping a RunResult of each, then shrinks the
// first maxShrink violations (in run order — deterministic regardless
// of worker interleaving) and renders every violation's scenario. It is
// the one chaos runner and writes no file: `hftsim -campaign` prints
// its digest and saves the scenarios, `hftbench -fleet` prints its
// aggregate.
func RunCampaign(o CampaignOptions) (CampaignReport, error) {
	if o.Runs <= 0 {
		return CampaignReport{}, fmt.Errorf("chaos: campaign needs a positive run count (got %d)", o.Runs)
	}
	logf := func(format string, args ...any) {
		if o.Log != nil {
			fmt.Fprintf(o.Log, format+"\n", args...)
		}
	}

	// Results land in run-index slots, so everything downstream is
	// deterministic.
	results := make([]RunResult, o.Runs)
	sched.ForEach(o.Workers, o.Runs, func(i int) {
		rep := Execute(ScheduleAt(o.Seed, i))
		results[i] = RunResult{Shard: i, Metrics: rep.Metrics}
		if rep.Failed() {
			results[i].Violation = rep.Violation.String()
		}
	})

	rep := CampaignReport{Results: results}
	rep.Digest, rep.Aggregate = rollup(results)
	// Clean runs keep no Report. A violating one is executed again for
	// its Report: a run is a pure function of its schedule, on a warm
	// arena too.
	for i := range results {
		if results[i].Violation == "" {
			continue
		}
		s := ScheduleAt(o.Seed, i)
		v := ViolationReport{Run: i, Schedule: s, Report: Execute(s)}
		logf("run %d FAILED (%v): %v", i, v.Report.Violation, s)
		rep.Violations = append(rep.Violations, v)
	}
	if !rep.Failed() {
		logf("campaign clean: %d runs, all invariants held", o.Runs)
		return rep, nil
	}
	for vi := range rep.Violations {
		v := &rep.Violations[vi]
		minimal := v.Schedule
		report := v.Report
		if vi < maxShrink {
			v.Shrunk = Shrink(v.Schedule, v.Report)
			minimal, report = v.Shrunk.Schedule, v.Shrunk.Report
			logf("run %d shrunk: %d -> %d steps in %d executions (1-minimal: %v)",
				v.Run, len(v.Schedule.Steps), len(minimal.Steps), v.Shrunk.Executions, v.Shrunk.Minimal)
		}
		note := fmt.Sprintf("campaign seed %d, run %d", o.Seed, v.Run)
		v.Scenario = Scenario(minimal, report.Violation, note)
	}
	return rep, nil
}
