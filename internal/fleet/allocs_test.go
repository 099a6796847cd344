package fleet

import (
	"runtime"
	"testing"
)

// TestFleetShardAllocs pins what a shard's cluster lifecycle allocates
// once the process is warm: build, chaos schedule, Save/Restore round
// trips and close. Every struct and buffer whose lifetime is one cluster
// belongs to the cluster's arena, and idle arenas wait on one
// process-wide shelf: a garbage collection does not empty it, and a
// worker on any P borrows from it, so the reading depends on the code,
// not on the P a worker happens to run on. Warm means every arena has
// served the fleet's largest clusters: two 64-shard fleets and one of the
// measured 16, run by as many workers as the measured one. Measured as
// the first test of a fresh process, a shard then reads 22,942 B at one
// P, since the arena recycles the machines, hypervisors, links,
// replicas and processes whole rather than their buffers alone; it read
// 41,832 B before, 43,111–43,120 B before the NIC's and the client
// population's tables joined the arena, 70,828–70,837 B while the run
// loop's lists started
// empty in every cluster, and the package sync.Pools the arenas replaced
// read 95,258–103,945 B, because every GC emptied them and a Put on one
// P could not serve a Get on another. The bound sits halfway between the
// last two one-P ranges, and the two-P reading must lie within 10 % of
// the one-P one. At two Ps the shelf hands arenas to shards in scheduler
// order, so an arena can meet a cluster larger than any it has served —
// more nodes, more long archives, a larger checkpoint — and allocate for
// it once: with two workers on two Ps a shard read 22,466–29,439 B and 9
// of 60 processes failed the rule (8 and 9 of 60 in two earlier series,
// up to 36,160 B), where the parent of this reading failed 3 of 60 at
// 41,429–52,515 B. The excess in bytes is what it was; the base it is
// measured against halved (see the FOUND in CHANGES.md).
func TestFleetShardAllocs(t *testing.T) {
	const shards, bound = 16, 32_300
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
