package session

import (
	"testing"

	"repro/internal/guest"
	"repro/internal/obs"
	"repro/internal/scsi"
	"repro/internal/sim"
)

func cpuOpts(iters uint32) Options {
	return Options{
		Seed:        1,
		Program:     WorkloadProgram(guest.CPUIntensive(iters)),
		EpochLength: 1024,
	}
}

// TestSlicedRunMatchesOneShot is the engine's core invariant: the same
// session advanced in arbitrary bounded slices produces a terminal
// result bit-identical to one driven to completion in a single call.
// failNodeAt runs e up to virtual time at and failstops node i there.
func failNodeAt(t *testing.T, e *Engine, i int, at sim.Time) {
	t.Helper()
	if err := e.RunFor(at - e.Now()); err != nil {
		t.Fatal(err)
	}
	if _, err := e.FailNode(i); err != nil {
		t.Fatal(err)
	}
}

func TestSlicedRunMatchesOneShot(t *testing.T) {
	one := New(cpuOpts(5000))
	defer one.Close()
	if err := one.RunToCompletion(nil); err != nil {
		t.Fatal(err)
	}
	ref, err := one.Result()
	if err != nil {
		t.Fatal(err)
	}

	for _, slice := range []sim.Time{100 * sim.Microsecond, 3 * sim.Millisecond, 40 * sim.Millisecond} {
		sliced := New(cpuOpts(5000))
		for !sliced.Done() {
			sliced.RunFor(slice)
			if sliced.Now() > 100*sim.Second {
				t.Fatalf("slice %v: did not finish", slice)
			}
		}
		got, err := sliced.Result()
		sums, backup := sliced.Snapshot(), sliced.reps[1].Stats
		sliced.Close()
		if err != nil {
			t.Fatal(err)
		}
		if got.Time != ref.Time || got.Guest != ref.Guest || got.Console != ref.Console ||
			got.PrimaryStats != ref.PrimaryStats || backup != one.reps[1].Stats || sums != one.Snapshot() {
			t.Errorf("slice %v drifted: time %v vs %v, checksum %#x vs %#x",
				slice, got.Time, ref.Time, got.Guest.Checksum, ref.Guest.Checksum)
		}
	}
}

// TestBareSlicedRun verifies slicing is also invisible for the baseline
// topology.
func TestBareSlicedRun(t *testing.T) {
	o := cpuOpts(5000)
	o.Bare = true
	one := New(o)
	defer one.Close()
	if err := one.RunToCompletion(nil); err != nil {
		t.Fatal(err)
	}
	ref, _ := one.Result()

	sliced := New(o)
	defer sliced.Close()
	for !sliced.Done() {
		sliced.RunFor(500 * sim.Microsecond)
	}
	got, err := sliced.Result()
	if err != nil {
		t.Fatal(err)
	}
	if got.Time != ref.Time || got.Guest != ref.Guest {
		t.Errorf("bare sliced run drifted: %v/%#x vs %v/%#x",
			got.Time, got.Guest.Checksum, ref.Time, ref.Guest.Checksum)
	}
}

// TestRunUntilEpochPredicate pauses on an epoch-boundary predicate,
// then resumes.
func TestRunUntilEpochPredicate(t *testing.T) {
	var commits int
	o := cpuOpts(5000)
	o.Observer = func(ev obs.Event) {
		if ev.Kind == obs.EventEpochCommitted {
			commits++
		}
	}
	e := New(o)
	defer e.Close()
	if err := e.RunUntil(func() bool { return commits >= 3 }); err != nil {
		t.Fatal(err)
	}
	if commits < 3 || e.Done() {
		t.Fatalf("predicate stop: commits=%d done=%v", commits, e.Done())
	}
	pausedAt := e.Now()
	if err := e.RunToCompletion(nil); err != nil {
		t.Fatal(err)
	}
	if e.Now() < pausedAt {
		t.Error("time went backwards across resume")
	}
	// A pred-paused-then-resumed run matches an uninterrupted one.
	ref := New(cpuOpts(5000))
	defer ref.Close()
	if err := ref.RunToCompletion(nil); err != nil {
		t.Fatal(err)
	}
	a, _ := e.Result()
	b, _ := ref.Result()
	if a.Time != b.Time || a.Guest != b.Guest {
		t.Errorf("paused run drifted: %v vs %v", a.Time, b.Time)
	}
}

// TestEventStreamOrdering checks events arrive in nondecreasing virtual
// time with the expected lifecycle shape.
func TestEventStreamOrdering(t *testing.T) {
	var evs []obs.Event
	o := Options{
		Seed:        1,
		Program:     WorkloadProgram(guest.CPUIntensive(4000)),
		EpochLength: 1024,
		Observer:    func(ev obs.Event) { evs = append(evs, ev) },
	}
	e := New(o)
	defer e.Close()
	failNodeAt(t, e, 0, 4*sim.Millisecond)
	if err := e.RunToCompletion(nil); err != nil {
		t.Fatal(err)
	}
	var last sim.Time
	var sawFail, sawPromote, sawComplete bool
	for _, ev := range evs {
		if ev.Time < last {
			t.Fatalf("event time went backwards: %v after %v (kind %d)", ev.Time, last, ev.Kind)
		}
		last = ev.Time
		switch ev.Kind {
		case obs.EventFailstop:
			sawFail = true
			if sawPromote {
				t.Error("failstop after promotion")
			}
		case obs.EventPromoted:
			sawPromote = true
			if !sawFail {
				t.Error("promotion before failstop")
			}
		case obs.EventCompleted:
			sawComplete = true
		}
	}
	if !sawFail || !sawPromote || !sawComplete {
		t.Errorf("missing lifecycle events: fail=%v promote=%v complete=%v", sawFail, sawPromote, sawComplete)
	}
	r, err := e.Result()
	if err != nil {
		t.Fatal(err)
	}
	if !r.Promoted {
		t.Error("result does not reflect promotion")
	}
}

// TestResultBeforeCompletion ensures mid-run Result errors while
// Snapshot works.
func TestResultBeforeCompletion(t *testing.T) {
	e := New(cpuOpts(5000))
	defer e.Close()
	e.RunFor(2 * sim.Millisecond)
	if _, err := e.Result(); err == nil {
		t.Error("Result succeeded mid-run")
	}
	s := e.Snapshot()
	if !s.Booted || s.Done || s.Now != 2*sim.Millisecond {
		t.Errorf("bad mid-run snapshot: %+v", s)
	}
}

// TestDeliveryDelayGrowsWithEpochLength: §4.2, "Increases to epoch length
// EL causes delayW(EL) and delayR(EL) to increase, because interrupts
// from the disk are buffered by the hypervisor for a longer period." This
// is the mechanism behind Figure 3's upward drift at large EL.
func TestDeliveryDelayGrowsWithEpochLength(t *testing.T) {
	// hftbench's quick-scale disk-write benchmark.
	w := guest.DiskWrite(4, 2048)
	w.PreOp, w.PrivOps = 1300, 258
	delayAt := func(el uint64) sim.Time {
		e := New(Options{
			Seed: 1, Program: WorkloadProgram(w), EpochLength: el,
			Disk: scsi.DiskConfig{ReadLatency: sim.Time(24.2 * float64(sim.Millisecond) / 4), WriteLatency: 26 * sim.Millisecond / 4},
		})
		defer e.Close()
		if err := e.RunToCompletion(nil); err != nil {
			t.Fatal(err)
		}
		r, err := e.Result()
		if err != nil {
			t.Fatal(err)
		}
		if r.HVStats.DeliveryDelayCount == 0 {
			t.Fatalf("EL=%d: no delivery delays recorded", el)
		}
		return r.HVStats.MeanDeliveryDelay()
	}
	small := delayAt(1024)
	large := delayAt(32768)
	if large <= small {
		t.Errorf("mean delivery delay: EL=32K %v <= EL=1K %v", large, small)
	}
	// The delay is bounded by roughly one epoch's wall time.
	if large > 32768*20*sim.Nanosecond+5*sim.Millisecond {
		t.Errorf("delay %v implausibly large", large)
	}
}

// TestObserveNoAllocs: the replicas' observer handles the per-epoch
// protocol events — a commit, a digest check, a release without output —
// without allocating.
func TestObserveNoAllocs(t *testing.T) {
	o := cpuOpts(5000)
	o.Observer = func(obs.Event) {}
	e := New(o)
	defer e.Close()
	e.Boot()
	for _, ev := range []obs.Event{
		{Kind: obs.EventEpochCommitted, Time: 1, Epoch: 3, Tme: 99},
		{Kind: obs.EventBackupEpoch, Time: 1, Node: 1, Epoch: 3, DigestMatch: true},
		{Kind: obs.EventOutputCommitted, Time: 1, Epoch: 3},
	} {
		if a := testing.AllocsPerRun(100, func() { e.observe(ev) }); a != 0 {
			t.Errorf("%v: %v allocations", ev.Kind, a)
		}
	}
}
