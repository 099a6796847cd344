package fleet

import (
	"runtime"
	"testing"
)

// TestFleetShardAllocs pins what a shard's cluster lifecycle allocates
// once the process is warm: build, chaos schedule, Save/Restore round
// trips and close. The bound sits halfway between the last build whose
// chaos metrics read the events through an Events() subscription, a
// channel and a pump goroutine per cluster (149–155 KB per shard), and
// this one, which observes them synchronously (103–140 KB), each
// measured as the first test of a fresh process; repetitions in one
// process read lower.
//
// It runs at GOMAXPROCS 1, as the benchmark's fleet_chaos units do: on
// more Ps the package sync.Pools miss whenever a Get runs on another P
// than the Put, which depends on the host's scheduling, not on the code.
func TestFleetShardAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector drops sync.Pool puts at random")
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	const shards, bound = 16, 145_000
	spec := Spec{Shards: shards, Seed: 19951203, Workers: 1}
	Run(spec) // warm-up: bare-run caches, base images, pools
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	Run(spec)
	runtime.ReadMemStats(&after)
	per := (after.TotalAlloc - before.TotalAlloc) / shards
	t.Logf("%d bytes per shard (bound %d)", per, bound)
	if per > bound {
		t.Fatalf("a shard allocates %d bytes, bound %d", per, bound)
	}
}
