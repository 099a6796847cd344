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
// from it, so the reading depends on the code, not on the P a worker
// happens to run on. Warm means every arena has served the fleet's largest
// clusters: two 64-shard fleets and one of the measured 16, run by as
// many workers as the measured one. Measured as the first test of a
// fresh process, a shard then reads 43,111–43,120 B at one P and
// 42,812–46,156 B with two workers on two Ps in 58 of 60 processes,
// since the arena also owns the run loop's kernel events, link rings,
// epoch records, frames, write latches and hypervisor and NIC buffers;
// it read 70,828–70,837 B and 71,001–74,808 B while those lists started
// empty in every cluster, and the package sync.Pools the arenas replaced
// read 95,258–103,945 B at one P and 96,513–124,702 B at two, because
// every GC emptied them and a Put on one P could not serve a Get on
// another. The bound sits halfway between the last two one-P ranges,
// and the two-P reading must lie within 10 % of the one-P one. At two
// Ps the shelf hands arenas to shards in scheduler order, so an arena
// can meet a cluster larger than any it has served — more nodes, or
// more long archives at once — and allocate for it once: the other two
// processes read 48,514 and 49,507 B and failed, as 3 of 40 processes
// did (84–97 KB) while the lists started empty.
func TestFleetShardAllocs(t *testing.T) {
	const shards, bound = 16, 57_000
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
