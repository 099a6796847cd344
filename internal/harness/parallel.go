package harness

import "repro/internal/sched"

// Every simulation the harness runs — one bare or replicated boot of the
// guest — is self-contained: it owns its simulation kernel, machines,
// devices and links, and is deterministic in its inputs. Experiment
// drivers therefore fan independent simulations (figure points, table
// cells, campaign injections) across worker goroutines and slot results
// by index, so the assembled output is bit-for-bit identical at any
// worker count.

// ForEachWorkers runs fn(i) for every i in [0, n) on an explicit
// worker count, fanning through the fleet work-stealing scheduler
// (internal/sched). fn must communicate results through
// index-addressed slots, so the assembled output is bit-for-bit
// identical at any worker count. workers == 0 means 1 (serial);
// workers < 0 selects GOMAXPROCS. A panic in any worker (the harness's
// consistency checks panic) is re-raised on the caller.
func ForEachWorkers(workers, n int, fn func(i int)) {
	if workers == 0 {
		workers = 1
	}
	sched.ForEach(workers, n, fn)
}
