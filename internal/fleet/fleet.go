// Package fleet is the name the benchmark (bench/) calls the chaos
// runner by. A fleet of N shards is chaos.RunCampaign over N runs, and
// its report is the campaign's fleet rollup: shard i is campaign run i,
// chaos.ScheduleAt(Seed, i). `hftbench -fleet N` calls the runner
// itself, so that it can print the shrunk scenarios of what the fleet
// violated. See docs/FLEET.md.
//
// Determinism contract: the whole Report is bit-identical at any
// worker count and on any host (TestFleetGolden pins a 64-shard one).
package fleet

import "repro/internal/chaos"

// Spec describes a fleet run.
type Spec struct {
	// Shards is the number of clusters to stand up and drive.
	Shards int `json:"shards"`
	// Seed derives every shard's schedule: shard i executes
	// chaos.ScheduleAt(Seed, i), so any shard replays in isolation.
	Seed int64 `json:"seed"`
	// Workers is the work-stealing scheduler's width; < 1 selects all
	// cores. The Report is bit-identical at any width.
	Workers int `json:"-"`
}

// ShardResult is one shard's deterministic outcome.
type ShardResult = chaos.RunResult

// Aggregate is the fleet-wide rollup.
type Aggregate = chaos.Aggregate

// Report is a fleet run's complete outcome.
type Report struct {
	Spec      Spec          `json:"spec"`
	Shards    []ShardResult `json:"-"`
	Aggregate Aggregate     `json:"aggregate"`
}

// Run executes the fleet as a campaign of spec.Shards runs, which must
// be positive. It writes no artifact, so the campaign returns no error.
func Run(spec Spec) Report {
	rep, _ := chaos.RunCampaign(chaos.CampaignOptions{Runs: spec.Shards, Seed: spec.Seed, Workers: spec.Workers})
	return Report{Spec: spec, Shards: rep.Results, Aggregate: rep.Aggregate}
}
