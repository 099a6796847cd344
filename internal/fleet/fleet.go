// Package fleet stands up and drives thousands of concurrent
// replicated clusters in one process — the scale harness behind
// `hftbench -fleet N`. Each shard is one hft.Cluster with its own
// seed, workload, link model and randomized fault schedule (reusing
// the chaos generator, so every shard replays independently via
// chaos.ScheduleAt). Shards run on the work-stealing scheduler
// (internal/sched) and share guest kernel pages through the machine
// layer's content-interned copy-on-write base images, so a 10k-shard
// fleet costs a few dirty pages per replica instead of a private RAM
// copy each.
//
// Determinism contract: the whole Report is bit-identical at any
// worker count and on any host (TestFleetGolden pins a 64-shard one).
// Host-dependent quantities (wall time, throughput, allocation) are
// measured around Run by the benchmark's fleet_chaos workload, never
// reported here.
package fleet

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"slices"

	hft "repro"
	"repro/internal/chaos"
	"repro/internal/sched"
)

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
type ShardResult struct {
	Shard int `json:"shard"`
	// Violation is the chaos invariant violation, "" for a clean run.
	Violation string `json:"violation,omitempty"`
	// Metrics summarizes the run (virtual-time quantities only).
	Metrics chaos.Metrics `json:"metrics"`
}

// Aggregate is the fleet-wide rollup.
type Aggregate struct {
	Shards     int `json:"shards"`
	Violations int `json:"violations"`
	// Failovers counts backup promotions across the fleet.
	Failovers int `json:"failovers"`
	// Commits / Instructions sum the per-shard counters.
	Commits      uint64 `json:"commits"`
	Instructions uint64 `json:"instructions"`
	// VirtualTime sums per-shard completion times — the denominator
	// for virtual epoch-commit throughput.
	VirtualTime hft.Duration `json:"virtual_time"`
	// BlackoutP50/P99/Max are nearest-rank percentiles of the failover
	// blackout across shards that failed over (zero if none did).
	BlackoutP50 hft.Duration `json:"blackout_p50"`
	BlackoutP99 hft.Duration `json:"blackout_p99"`
	BlackoutMax hft.Duration `json:"blackout_max"`
	// Digest fingerprints every shard result, so one committed value
	// pins the whole fleet's outcome.
	Digest string `json:"digest"`
}

// Report is a fleet run's complete outcome.
type Report struct {
	Spec      Spec          `json:"spec"`
	Shards    []ShardResult `json:"-"`
	Aggregate Aggregate     `json:"aggregate"`
}

// Run executes the fleet and reports per-shard results slotted by
// shard index plus the aggregate rollup.
func Run(spec Spec) Report {
	results := make([]ShardResult, spec.Shards)
	sched.ForEach(spec.Workers, spec.Shards, func(i int) {
		var m chaos.Metrics
		rep := chaos.Execute(chaos.ScheduleAt(spec.Seed, i), &m)
		r := ShardResult{Shard: i, Metrics: m}
		if rep.Violation != nil {
			r.Violation = rep.Violation.String()
		}
		results[i] = r
	})
	return Report{Spec: spec, Shards: results, Aggregate: aggregate(results)}
}

// aggregate folds shard results into the fleet rollup.
func aggregate(results []ShardResult) Aggregate {
	agg := Aggregate{Shards: len(results)}
	h := fnv.New64a()
	var blackouts []hft.Duration
	var buf [8]byte
	put := func(v uint64) {
		binary.LittleEndian.PutUint64(buf[:], v)
		h.Write(buf[:])
	}
	for i := range results {
		r := &results[i]
		if r.Violation != "" {
			agg.Violations++
		}
		agg.Failovers += r.Metrics.Failovers
		agg.Commits += r.Metrics.Commits
		agg.Instructions += r.Metrics.Instructions
		agg.VirtualTime += r.Metrics.Time
		if r.Metrics.Failovers > 0 {
			blackouts = append(blackouts, r.Metrics.Blackout)
		}
		put(uint64(r.Shard))
		h.Write([]byte(r.Violation))
		put(r.Metrics.Commits)
		put(r.Metrics.Instructions)
		put(uint64(r.Metrics.Time))
		put(uint64(r.Metrics.Failovers))
		put(uint64(r.Metrics.Blackout))
	}
	if len(blackouts) > 0 {
		slices.Sort(blackouts)
		agg.BlackoutP50 = blackouts[(len(blackouts)-1)*50/100]
		agg.BlackoutP99 = blackouts[(len(blackouts)-1)*99/100]
		agg.BlackoutMax = blackouts[len(blackouts)-1]
	}
	agg.Digest = fmt.Sprintf("%016x", h.Sum64())
	return agg
}
