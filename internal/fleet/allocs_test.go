package fleet

import (
	"runtime"
	"testing"
)

// TestFleetShardAllocs pins what a shard's cluster lifecycle allocates
// once the process is warm: build, chaos schedule, Save/Restore round
// trips and close. Every buffer whose lifetime is one cluster belongs to
// the cluster's arena, and idle arenas wait on one process-wide shelf: a
// garbage collection does not empty it, and a worker on any P borrows
// from it, so the reading depends on the code, not on the host's
// scheduler. Warm means every arena has served the fleet's largest
// clusters: two 64-shard fleets and one of the measured 16, run by as
// many workers as the measured one. Measured as the first test of a
// fresh process, a shard then reads 70,828–70,837 B at one P and
// 71,116–73,949 B with two workers on two Ps (twelve processes); the
// package sync.Pools the arenas replaced read 95,258–103,945 B at one P
// and 96,513–124,702 B at two, because every GC emptied them and a Put
// on one P could not serve a Get on another. The bound sits
// halfway between the two one-P ranges, and the two-P reading must lie
// within 10 % of the one-P one.
func TestFleetShardAllocs(t *testing.T) {
	const shards, bound = 16, 83_000
	one := shardAllocs(1, shards)
	two := shardAllocs(2, shards)
	t.Logf("%d bytes per shard at one P, %d with two workers on two Ps (bound %d)", one, two, bound)
	if one > bound {
		t.Fatalf("a shard allocates %d bytes, bound %d", one, bound)
	}
	if diff := max(one, two) - min(one, two); diff*10 > one {
		t.Fatalf("two workers on two Ps allocate %d bytes per shard, one P %d: more than 10 %% apart", two, one)
	}
}

// shardAllocs is the bytes a warm fleet of shards, run by procs workers
// at GOMAXPROCS procs, allocates per shard.
func shardAllocs(procs, shards int) uint64 {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
	spec := Spec{Shards: shards, Seed: 19951203, Workers: procs}
	for _, n := range []int{64, 64, shards} { // warm-up: caches, base images, arenas
		Run(Spec{Shards: n, Seed: spec.Seed, Workers: procs})
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	Run(spec)
	runtime.ReadMemStats(&after)
	return (after.TotalAlloc - before.TotalAlloc) / uint64(shards)
}
