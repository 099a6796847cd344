package session

import (
	"testing"

	"repro/internal/netsim"
	"repro/internal/obs"
	"repro/internal/replication"
	"repro/internal/sim"
)

// ocServeOpts builds a service session running the output-commit engine.
func ocServeOpts(requests, window int, adaptive bool) Options {
	o := serveOpts(requests)
	o.OutputCommit = replication.OutputCommit{Enabled: true, Window: window, Adaptive: adaptive}
	return o
}

// TestOutputCommitServiceMatchesBare is the engine's transparency
// invariant: with output-triggered boundaries and a deep pipeline the
// reply transcript and guest checksum stay byte-identical to bare, with
// and without a mid-load primary failstop, under both protocols.
func TestOutputCommitServiceMatchesBare(t *testing.T) {
	bo := serveOpts(16)
	bo.Bare = true
	bare := New(bo)
	defer bare.Close()
	if err := bare.RunToCompletion(nil); err != nil {
		t.Fatal(err)
	}
	ref, err := bare.Result()
	if err != nil {
		t.Fatal(err)
	}

	cases := []struct {
		name     string
		window   int
		adaptive bool
		proto    replication.Protocol
	}{
		{"w1-fixed-old", 1, false, replication.ProtocolOld},
		{"w4-adaptive-old", 4, true, replication.ProtocolOld},
		{"w4-adaptive-new", 4, true, replication.ProtocolNew},
		{"w8-adaptive-old", 8, true, replication.ProtocolOld},
	}
	for _, tc := range cases {
		for _, failAt := range []sim.Time{0, 2 * sim.Millisecond} {
			o := ocServeOpts(16, tc.window, tc.adaptive)
			o.Protocol = tc.proto
			o.DetectTimeout = 2 * sim.Millisecond
			var commits int
			o.Observer = func(ev obs.Event) {
				if ev.Kind == obs.EventOutputCommitted {
					commits++
				}
			}
			e := New(o)
			if failAt > 0 {
				failNodeAt(t, e, 0, failAt)
			}
			if err := e.RunToCompletion(nil); err != nil {
				e.Close()
				t.Fatalf("%s failAt=%v: %v", tc.name, failAt, err)
			}
			res, err := e.Result()
			if err != nil {
				e.Close()
				t.Fatal(err)
			}
			if res.NetReplies != ref.NetReplies {
				t.Errorf("%s failAt=%v: reply transcript diverged from bare (%d vs %d bytes)",
					tc.name, failAt, len(res.NetReplies), len(ref.NetReplies))
			}
			if res.Guest.Checksum != ref.Guest.Checksum {
				t.Errorf("%s failAt=%v: checksum %#x vs bare %#x", tc.name, failAt, res.Guest.Checksum, ref.Guest.Checksum)
			}
			if failAt > 0 && !res.Promoted {
				t.Errorf("%s failAt=%v: no promotion", tc.name, failAt)
			}
			if d := e.Snapshot().Divergences; d != 0 {
				t.Errorf("%s failAt=%v: %d divergences", tc.name, failAt, d)
			}
			if commits == 0 {
				t.Errorf("%s failAt=%v: no obs.EventOutputCommitted observed", tc.name, failAt)
			}
			e.Close()
		}
	}
}

// TestOutputCommitAdaptiveCutsDeterministic is the boundary-determinism
// differential: with output-triggered boundaries the primary and every
// backup must cut each epoch at the same instruction coordinate — the
// protocol verifies each [end, E]'s cut against the local one and counts
// a divergence on mismatch — and the final guest state must equal a
// fixed-boundary run of the same schedule (epoch slicing is invisible to
// the computation).
func TestOutputCommitAdaptiveCutsDeterministic(t *testing.T) {
	fixed := New(serveOpts(16))
	defer fixed.Close()
	if err := fixed.RunToCompletion(nil); err != nil {
		t.Fatal(err)
	}
	ref, err := fixed.Result()
	if err != nil {
		t.Fatal(err)
	}

	o := ocServeOpts(16, 4, true)
	o.Backups = 2
	e := New(o)
	defer e.Close()
	if err := e.RunToCompletion(nil); err != nil {
		t.Fatal(err)
	}
	res, err := e.Result()
	if err != nil {
		t.Fatal(err)
	}
	if d := e.Snapshot().Divergences; d != 0 {
		t.Fatalf("adaptive cuts diverged across replicas: %d divergences", d)
	}
	if res.Guest.Checksum != ref.Guest.Checksum {
		t.Fatalf("adaptive-boundary checksum %#x differs from fixed-boundary %#x", res.Guest.Checksum, ref.Guest.Checksum)
	}
	if res.NetReplies != ref.NetReplies {
		t.Fatalf("adaptive-boundary reply transcript diverged from fixed-boundary run")
	}
	cuts := uint64(0)
	for i := 0; i <= o.Backups; i++ {
		cuts += e.cluster.Nodes[i].HV.Stats.AdaptiveCuts
	}
	if cuts == 0 {
		t.Fatal("no adaptive cuts fired; the differential exercised nothing")
	}
}

// TestOutputCommitWindowFailstop failstops the primary on a slow link
// with a deep window, so epochs die with their acknowledgments — and
// their deferred output — still in flight. Exactly-once must hold: the
// promoted backup's flush emits the uncommitted tail exactly once, the
// device ordinal dedup drops what the dead primary already released.
func TestOutputCommitWindowFailstop(t *testing.T) {
	bo := serveOpts(16)
	bo.Bare = true
	bare := New(bo)
	defer bare.Close()
	if err := bare.RunToCompletion(nil); err != nil {
		t.Fatal(err)
	}
	ref, err := bare.Result()
	if err != nil {
		t.Fatal(err)
	}

	o := ocServeOpts(16, 8, true)
	// A quarter millisecond each way: acks lag the execution by several
	// epochs, so the window is occupied when the failstop lands.
	link := netsim.Ethernet10("")
	link.Latency = 250 * sim.Microsecond
	o.Link = link
	o.DetectTimeout = 2 * sim.Millisecond
	maxOcc := 0
	o.Observer = func(ev obs.Event) {
		if ev.Kind == obs.EventOutputCommitted && ev.Occupancy > maxOcc {
			maxOcc = ev.Occupancy
		}
	}
	e := New(o)
	defer e.Close()
	failNodeAt(t, e, 0, 2*sim.Millisecond)
	if err := e.RunToCompletion(nil); err != nil {
		t.Fatal(err)
	}
	res, err := e.Result()
	if err != nil {
		t.Fatal(err)
	}
	if !res.Promoted {
		t.Fatal("no promotion")
	}
	if res.NetReplies != ref.NetReplies {
		t.Fatalf("reply transcript diverged from bare (%d vs %d bytes)", len(res.NetReplies), len(ref.NetReplies))
	}
	if res.Guest.Checksum != ref.Guest.Checksum {
		t.Fatalf("checksum %#x vs bare %#x", res.Guest.Checksum, ref.Guest.Checksum)
	}
	if maxOcc < 1 {
		t.Fatalf("window never pipelined (max occupancy %d); the failstop exercised nothing", maxOcc)
	}
}

// TestOutputCommitLatencyImproves pins the point of the engine: under
// identical load the output-commit configuration's client-observed p50
// must beat the lock-step protocol's.
func TestOutputCommitLatencyImproves(t *testing.T) {
	base := New(serveOpts(16))
	defer base.Close()
	if err := base.RunToCompletion(nil); err != nil {
		t.Fatal(err)
	}
	basep50 := base.Clients().Measure().P50

	e := New(ocServeOpts(16, 4, true))
	defer e.Close()
	if err := e.RunToCompletion(nil); err != nil {
		t.Fatal(err)
	}
	ocp50 := e.Clients().Measure().P50
	if ocp50 >= basep50 {
		t.Fatalf("output commit did not improve p50: %v (lock-step %v)", ocp50, basep50)
	}
	if sl, _ := e.ServiceLatencies(); sl.CommitP50 == 0 {
		t.Fatal("no commit-latency samples collected")
	}
}
