package fleet

import (
	"runtime"
	"testing"
)

// TestFleetShardAllocs pins what a shard's cluster lifecycle allocates
// once the process is warm: build, chaos schedule, event subscription,
// Save/Restore round trips and close. The bound sits halfway between
// the last build that allocated the checkpoint blobs, the subscription
// rings, the never-written disk blocks, the per-disk RNGs and the
// archive rings afresh for every cluster (≈ 250 KB per shard) and this
// one (≈ 155 KB), each measured as the first test of a fresh process;
// repetitions in one process read lower.
//
// It runs at GOMAXPROCS 1, as the benchmark's fleet_chaos units do: on
// more Ps a subscription's overflow depends on how soon the host wakes
// its consumer, not on the code.
func TestFleetShardAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector drops sync.Pool puts at random")
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	const shards, bound = 16, 202_000
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
