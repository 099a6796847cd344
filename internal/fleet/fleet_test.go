package fleet

import (
	"encoding/json"
	"reflect"
	"testing"
)

// The fleet determinism contract: the same spec produces bit-identical
// per-shard results and aggregates at any worker count, serial
// included.
func TestFleetDeterminism(t *testing.T) {
	// An explicit width > 1 forces real work-stealing goroutines even
	// on a single-core host (sched does not clamp to NumCPU).
	spec := Spec{Shards: 8, Seed: 424242, Workers: 1}
	serial := Run(spec)
	spec.Workers = 4
	parallel := Run(spec)

	if !reflect.DeepEqual(serial.Shards, parallel.Shards) {
		t.Fatalf("per-shard results differ between workers=1 and workers=%d", spec.Workers)
	}
	if !reflect.DeepEqual(serial.Aggregate, parallel.Aggregate) {
		t.Fatalf("aggregates differ:\nserial:   %+v\nparallel: %+v", serial.Aggregate, parallel.Aggregate)
	}
	a, err := json.Marshal(serial.Aggregate)
	if err != nil {
		t.Fatal(err)
	}
	b, err := json.Marshal(parallel.Aggregate)
	if err != nil {
		t.Fatal(err)
	}
	if string(a) != string(b) {
		t.Fatalf("aggregate JSON differs:\n%s\n%s", a, b)
	}
	if serial.Aggregate.Commits == 0 {
		t.Fatal("fleet committed zero epochs — shards did not actually run")
	}
}

// Violating shards must be reported, not dropped: a schedule set known
// to be clean reports zero violations (the chaos campaign suite covers
// the violating side).
func TestFleetAggregateShape(t *testing.T) {
	rep := Run(Spec{Shards: 4, Seed: 99, Workers: 2})
	if rep.Aggregate.Shards != 4 || len(rep.Shards) != 4 {
		t.Fatalf("aggregate covers %d shards, want 4", rep.Aggregate.Shards)
	}
	for i, r := range rep.Shards {
		if r.Shard != i {
			t.Fatalf("shard %d result landed in slot %d", r.Shard, i)
		}
		if r.Violation != "" {
			t.Fatalf("shard %d violated: %s", i, r.Violation)
		}
	}
	if rep.Aggregate.Failovers > 0 && rep.Aggregate.BlackoutMax == 0 {
		t.Fatal("failovers recorded but no blackout percentile computed")
	}
}

// TestFleetGolden pins one mid-sized fleet — 64 shards of the default
// seed, the spec `hftbench -fleet 64` runs — to the aggregate recorded
// on the build before this test existed. The digest folds every
// shard's commits, instructions, completion time, failovers and
// blackout, so multi-backup failover timing that no single-cluster
// golden reaches is covered by one value.
func TestFleetGolden(t *testing.T) {
	want := Aggregate{
		Shards:       64,
		Failovers:    18,
		Commits:      23442,
		Instructions: 46629961,
		VirtualTime:  5999318504,
		BlackoutP50:  50416600,
		BlackoutP99:  59370413,
		BlackoutMax:  88706520,
		Digest:       "fc9908ae116ef1cf",
	}
	if got := Run(Spec{Shards: 64, Seed: 19951203}).Aggregate; got != want {
		t.Fatalf("fleet aggregate moved:\n got %+v\nwant %+v", got, want)
	}
}
