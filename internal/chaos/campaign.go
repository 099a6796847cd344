package chaos

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"io"
	"math/rand"
	"os"
	"path/filepath"

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
	// Dir, when non-empty, receives one scenario artifact per shrunk
	// violation (chaos_run<i>.hfts). Created if missing.
	Dir string
	// Log, when set, receives one-line progress (violations as found,
	// shrink results).
	Log io.Writer
	// Workers is the fan-out width on the fleet work-stealing scheduler
	// (internal/sched): < 0 selects all cores, 0 means 1 (serial).
	Workers int
}

// ViolationReport is one failing run, possibly with its shrunk
// reproduction.
type ViolationReport struct {
	// Run is the campaign run index (replays as Schedule(seed, Run)).
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
	// Artifact is the scenario's path on disk ("" if Dir was unset).
	Artifact string
}

// CampaignReport summarizes a campaign.
type CampaignReport struct {
	Runs       int
	Violations []ViolationReport
	// Digest fingerprints what the runs did, not only that they held the
	// invariants: every run's completion time and Metrics (commits,
	// instructions, failovers, blackout), folded in run order. Two builds
	// that print the same digest for one seed ran the same campaign.
	Digest string
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

// campaignDigest folds every run's outcome, in run order, into one value.
func campaignDigest(reports []Report, metrics []Metrics) string {
	h := fnv.New64a()
	var buf [8]byte
	for i := range reports {
		m := &metrics[i]
		for _, v := range [...]uint64{
			uint64(reports[i].Result.Time), m.Commits, m.Instructions,
			uint64(m.Failovers), uint64(m.Blackout),
		} {
			binary.LittleEndian.PutUint64(buf[:], v)
			h.Write(buf[:])
		}
	}
	return fmt.Sprintf("%016x", h.Sum64())
}

// maxShrink bounds how many violations a campaign shrinks (shrinking
// costs up to shrinkBudget executions each; the rest are reported raw).
const maxShrink = 3

// RunCampaign generates and executes o.Runs schedules across the
// fleet scheduler's workers, then shrinks and emits artifacts for the first
// maxShrink violations (in run order — deterministic regardless of
// worker interleaving).
func RunCampaign(o CampaignOptions) (CampaignReport, error) {
	if o.Runs <= 0 {
		return CampaignReport{}, fmt.Errorf("chaos: campaign needs a positive run count (got %d)", o.Runs)
	}
	logf := func(format string, args ...any) {
		if o.Log != nil {
			fmt.Fprintf(o.Log, format+"\n", args...)
		}
	}

	// Execute the whole batch on the fleet scheduler. Reports land in
	// run-index slots, so everything downstream is deterministic.
	reports := make([]Report, o.Runs)
	metrics := make([]Metrics, o.Runs)
	workers := o.Workers
	if workers == 0 {
		workers = 1
	}
	sched.ForEach(workers, o.Runs, func(i int) {
		reports[i] = Execute(ScheduleAt(o.Seed, i), &metrics[i])
	})

	rep := CampaignReport{Runs: o.Runs, Digest: campaignDigest(reports, metrics)}
	for i := range reports {
		if !reports[i].Failed() {
			continue
		}
		logf("run %d FAILED (%v): %v", i, reports[i].Violation, reports[i].Schedule)
		rep.Violations = append(rep.Violations, ViolationReport{
			Run: i, Schedule: reports[i].Schedule, Report: reports[i],
		})
	}
	if !rep.Failed() {
		logf("campaign clean: %d runs, all invariants held", o.Runs)
		return rep, nil
	}

	if o.Dir != "" {
		if err := os.MkdirAll(o.Dir, 0o755); err != nil {
			return rep, fmt.Errorf("chaos: artifact dir: %w", err)
		}
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
		if o.Dir != "" {
			path := filepath.Join(o.Dir, fmt.Sprintf("chaos_run%d.hfts", v.Run))
			if err := os.WriteFile(path, []byte(v.Scenario), 0o644); err != nil {
				return rep, fmt.Errorf("chaos: artifact: %w", err)
			}
			v.Artifact = path
			logf("run %d artifact: %s", v.Run, path)
		}
	}
	return rep, nil
}
