package main

import (
	"time"

	"repro/internal/sched"
)

func probeSched(total time.Duration, m map[string]float64) {
	// The fleet's fan-out over near-empty items: what the work-stealing
	// scheduler itself costs per shard. Each item writes its own slot, so
	// the workers share no cache line but the scheduler's.
	var slots []int
	m["sched.foreach_ns_per_item"] = perOp(total, func(n int) {
		if len(slots) < n {
			slots = make([]int, n)
		}
		sched.ForEach(fleetWorkers(), n, func(i int) { slots[i] = i })
	})
}
