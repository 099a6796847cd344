package sim

import (
	"fmt"
	"runtime"
	"testing"
	"testing/quick"
)

func TestTimeString(t *testing.T) {
	cases := []struct {
		in   Time
		want string
	}{
		{5, "5ns"},
		{2 * Microsecond, "2us"},
		{3 * Millisecond, "3ms"},
		{4 * Second, "4s"},
		{1500, "1.5us"},
	}
	for _, c := range cases {
		if got := c.in.String(); got != c.want {
			t.Errorf("Time(%d).String() = %q, want %q", int64(c.in), got, c.want)
		}
	}
}

func TestTimeConversions(t *testing.T) {
	if got := (2500 * Millisecond).Seconds(); got != 2.5 {
		t.Errorf("Seconds = %v, want 2.5", got)
	}
	if got := (3 * Millisecond).Micros(); got != 3000 {
		t.Errorf("Micros = %v, want 3000", got)
	}
}

func TestEventOrdering(t *testing.T) {
	k := NewKernel(1)
	var order []int
	k.At(100, func() { order = append(order, 2) })
	k.At(50, func() { order = append(order, 1) })
	k.At(100, func() { order = append(order, 3) }) // same time: insertion order
	k.At(200, func() { order = append(order, 4) })
	end := k.Run()
	if end != 200 {
		t.Fatalf("end time = %v, want 200", end)
	}
	want := []int{1, 2, 3, 4}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("order = %v, want %v", order, want)
		}
	}
}

func TestEventCancel(t *testing.T) {
	k := NewKernel(1)
	fired := false
	h := k.At(10, func() { fired = true })
	h.Cancel()
	k.Run()
	if fired {
		t.Error("canceled event fired")
	}
	// Double-cancel is a no-op.
	h.Cancel()
}

func TestAfterNegativeClamped(t *testing.T) {
	k := NewKernel(1)
	var at Time = -1
	k.After(-5, func() { at = k.Now() })
	k.Run()
	if at != 0 {
		t.Errorf("negative After fired at %v, want 0", at)
	}
}

// TestAfterArg: an AfterArg event takes the place an After closure
// scheduled at the same call would — the same (time, seq) — and calls its
// function with its argument; a negative delay clamps to now, a canceled
// one never fires, and a recycled event forgets its function.
func TestAfterArg(t *testing.T) {
	k := NewKernel(1)
	var got []string
	note := func(v uint64) { got = append(got, fmt.Sprint(v)) }
	k.After(10, func() { got = append(got, "a") })
	k.AfterArg(10, note, 1)
	k.After(5, func() { got = append(got, "b") })
	k.AfterArg(5, note, 2)
	h := k.AfterArg(5, note, 3)
	k.AfterArg(-1, note, 4)
	h.Cancel()
	k.Run()
	k.After(1, func() { got = append(got, "c") }) // reuses a recycled AfterArg event
	k.Run()
	if s := fmt.Sprint(got); s != "[4 b 2 a 1 c]" {
		t.Errorf("fired %s, want [4 b 2 a 1 c]", s)
	}
}

func TestAtPastClamped(t *testing.T) {
	k := NewKernel(1)
	var at Time = -1
	k.At(100, func() {
		k.At(50, func() { at = k.Now() }) // in the past: clamps to now
	})
	k.Run()
	if at != 100 {
		t.Errorf("past event fired at %v, want 100", at)
	}
}

func TestRunUntil(t *testing.T) {
	k := NewKernel(1)
	var fired []Time
	for _, at := range []Time{10, 20, 30, 40} {
		at := at
		k.At(at, func() { fired = append(fired, at) })
	}
	k.RunUntil(25)
	if len(fired) != 2 || fired[0] != 10 || fired[1] != 20 {
		t.Fatalf("fired = %v, want [10 20]", fired)
	}
	if k.Now() != 25 {
		t.Fatalf("now = %v, want 25", k.Now())
	}
	k.Run()
	if len(fired) != 4 {
		t.Fatalf("after Run fired = %v, want all 4", fired)
	}
}

func TestStop(t *testing.T) {
	k := NewKernel(1)
	count := 0
	k.At(10, func() { count++; k.Stop() })
	k.At(20, func() { count++ })
	k.Run()
	if count != 1 {
		t.Errorf("count = %d, want 1 (Stop should halt)", count)
	}
	if !k.Stopped() {
		t.Error("Stopped() = false after Stop")
	}
}

func TestProcSleep(t *testing.T) {
	k := NewKernel(1)
	var times []Time
	k.Spawn("sleeper", func(p *Proc) {
		times = append(times, p.Now())
		p.Sleep(100)
		times = append(times, p.Now())
		p.Sleep(50)
		times = append(times, p.Now())
	})
	k.Run()
	defer k.Shutdown()
	want := []Time{0, 100, 150}
	if len(times) != 3 {
		t.Fatalf("times = %v", times)
	}
	for i := range want {
		if times[i] != want[i] {
			t.Fatalf("times = %v, want %v", times, want)
		}
	}
	if k.LiveProcs() != 0 {
		t.Errorf("LiveProcs = %d, want 0", k.LiveProcs())
	}
}

func TestProcInterleaving(t *testing.T) {
	k := NewKernel(1)
	var order []string
	k.Spawn("a", func(p *Proc) {
		for i := 0; i < 3; i++ {
			order = append(order, fmt.Sprintf("a%d@%d", i, p.Now()))
			p.Sleep(10)
		}
	})
	k.Spawn("b", func(p *Proc) {
		for i := 0; i < 3; i++ {
			order = append(order, fmt.Sprintf("b%d@%d", i, p.Now()))
			p.Sleep(15)
		}
	})
	k.Run()
	defer k.Shutdown()
	want := []string{"a0@0", "b0@0", "a1@10", "b1@15", "a2@20", "b2@30"}
	if len(order) != len(want) {
		t.Fatalf("order = %v", order)
	}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("order = %v, want %v", order, want)
		}
	}
}

func TestSignalBroadcast(t *testing.T) {
	k := NewKernel(1)
	s := k.NewSignal("s")
	var woken []string
	for _, name := range []string{"p1", "p2", "p3"} {
		name := name
		k.Spawn(name, func(p *Proc) {
			p.WaitTimeout(s, Forever)
			woken = append(woken, name)
		})
	}
	k.Spawn("broadcaster", func(p *Proc) {
		p.Sleep(100)
		if s.Waiters() != 3 {
			t.Errorf("Waiters = %d, want 3", s.Waiters())
		}
		s.Broadcast()
	})
	k.Run()
	defer k.Shutdown()
	if len(woken) != 3 || woken[0] != "p1" || woken[1] != "p2" || woken[2] != "p3" {
		t.Fatalf("woken = %v, want [p1 p2 p3] (wait order)", woken)
	}
}

func TestWaitTimeout(t *testing.T) {
	k := NewKernel(1)
	s := k.NewSignal("s")
	var got bool
	var at Time
	k.Spawn("waiter", func(p *Proc) {
		got = p.WaitTimeout(s, 50)
		at = p.Now()
	})
	k.Run()
	defer k.Shutdown()
	if got {
		t.Error("WaitTimeout returned true, want false (timeout)")
	}
	if at != 50 {
		t.Errorf("woke at %v, want 50", at)
	}
}

func TestWaitTimeoutSignaledFirst(t *testing.T) {
	k := NewKernel(1)
	s := k.NewSignal("s")
	var got bool
	k.Spawn("waiter", func(p *Proc) {
		got = p.WaitTimeout(s, 1000)
	})
	k.Spawn("signaler", func(p *Proc) {
		p.Sleep(10)
		s.Broadcast()
	})
	k.Run()
	defer k.Shutdown()
	if !got {
		t.Error("WaitTimeout returned false, want true (signaled)")
	}
}

func TestBroadcastAfterTimeoutDoesNotWakeTimedOutWaiter(t *testing.T) {
	k := NewKernel(1)
	s := k.NewSignal("s")
	wakeups := 0
	k.Spawn("waiter", func(p *Proc) {
		p.WaitTimeout(s, 10)
		wakeups++
		p.WaitTimeout(s, Forever) // waits again; should only wake on the 2nd broadcast
		wakeups++
	})
	k.Spawn("signaler", func(p *Proc) {
		p.Sleep(100)
		s.Broadcast()
	})
	k.Run()
	defer k.Shutdown()
	if wakeups != 2 {
		t.Errorf("wakeups = %d, want 2", wakeups)
	}
}

func TestQueueFIFO(t *testing.T) {
	k := NewKernel(1)
	q := NewQueue[int](k, "q")
	var got []int
	k.Start("consumer", func(*Proc) (Time, StepStatus) {
		for {
			v, ok := q.TryRecv()
			if !ok {
				return q.Await(Forever)
			}
			if got = append(got, v); len(got) == 5 {
				return 0, StepDone
			}
		}
	})
	k.Spawn("producer", func(p *Proc) {
		for i := 0; i < 5; i++ {
			p.Sleep(10)
			q.Put(i)
		}
	})
	k.Run()
	defer k.Shutdown()
	for i := 0; i < 5; i++ {
		if got[i] != i {
			t.Fatalf("got = %v, want [0 1 2 3 4]", got)
		}
	}
}

// awaitOne starts a step process that waits up to d for q's next item
// and records what it got (ok false: the wait timed out) and when.
func awaitOne(k *Kernel, q *Queue[string], d Time, v *string, ok *bool, at *Time) {
	waited := false
	k.Start("consumer", func(p *Proc) (Time, StepStatus) {
		if !waited {
			waited = true
			return q.Await(d)
		}
		*v, *ok = q.TryRecv()
		*at = p.Now()
		return 0, StepDone
	})
}

func TestQueueRecvTimeout(t *testing.T) {
	k := NewKernel(1)
	q := NewQueue[string](k, "q")
	var v string
	var ok bool
	var at Time
	awaitOne(k, q, 30, &v, &ok, &at)
	k.Run()
	defer k.Shutdown()
	if ok {
		t.Error("the wait received, want a timeout")
	}
	if at != 30 {
		t.Errorf("timed out at %v, want 30", at)
	}
}

func TestQueueRecvTimeoutDelivered(t *testing.T) {
	k := NewKernel(1)
	q := NewQueue[string](k, "q")
	var ok bool
	var v string
	var at Time
	awaitOne(k, q, 1000, &v, &ok, &at)
	k.Spawn("producer", func(p *Proc) {
		p.Sleep(5)
		q.Put("hello")
	})
	k.Run()
	defer k.Shutdown()
	if !ok || v != "hello" || at != 5 {
		t.Errorf("got (%q, %v) at %v, want (hello, true) at 5", v, ok, at)
	}
}

func TestQueueTryRecvAndDrain(t *testing.T) {
	k := NewKernel(1)
	q := NewQueue[int](k, "q")
	if _, ok := q.TryRecv(); ok {
		t.Error("TryRecv on empty queue returned ok")
	}
	q.Put(1)
	q.Put(2)
	q.Put(3)
	if q.Len() != 3 {
		t.Errorf("Len = %d, want 3", q.Len())
	}
	if v, ok := q.TryRecv(); !ok || v != 1 {
		t.Errorf("TryRecv = (%d, %v), want (1, true)", v, ok)
	}
	rest := q.Drain()
	if len(rest) != 2 || rest[0] != 2 || rest[1] != 3 {
		t.Errorf("Drain = %v, want [2 3]", rest)
	}
	if q.Len() != 0 {
		t.Errorf("Len after Drain = %d, want 0", q.Len())
	}
}

func TestShutdownUnblocksProcs(t *testing.T) {
	k := NewKernel(1)
	s := k.NewSignal("never")
	q := NewQueue[int](k, "empty")
	k.Spawn("stuck1", func(p *Proc) { p.WaitTimeout(s, Forever) })
	k.Start("stuck2", func(*Proc) (Time, StepStatus) { return q.Await(Forever) })
	k.Run()
	if k.LiveProcs() != 2 {
		t.Fatalf("LiveProcs = %d, want 2 (both blocked)", k.LiveProcs())
	}
	k.Shutdown()
	if k.LiveProcs() != 0 {
		t.Fatalf("LiveProcs after Shutdown = %d, want 0", k.LiveProcs())
	}
}

func TestOnIdleHook(t *testing.T) {
	k := NewKernel(1)
	calls := 0
	s := k.NewSignal("s")
	k.Spawn("waiter", func(p *Proc) { p.WaitTimeout(s, Forever) })
	k.OnIdle(func() bool {
		calls++
		if calls == 1 {
			s.Broadcast()
			return true
		}
		return false
	})
	k.Run()
	defer k.Shutdown()
	if calls != 2 {
		t.Errorf("idle hook calls = %d, want 2", calls)
	}
}

func TestNewRandIndependentStreams(t *testing.T) {
	k := NewKernel(42)
	a1 := k.NewRand("a").Int63()
	b1 := k.NewRand("b").Int63()
	if a1 == b1 {
		t.Error("streams a and b produced identical first values")
	}
	// Same name, same seed: reproducible.
	k2 := NewKernel(42)
	if got := k2.NewRand("a").Int63(); got != a1 {
		t.Errorf("stream not reproducible: %d != %d", got, a1)
	}
	// Different seed: different stream.
	k3 := NewKernel(43)
	if got := k3.NewRand("a").Int63(); got == a1 {
		t.Error("different seeds produced identical streams")
	}
}

// TestDeterminism runs a small multi-process scenario twice and checks the
// observable event sequence is identical.
func TestDeterminism(t *testing.T) {
	run := func() []string {
		var log []string
		k := NewKernel(7)
		defer k.Shutdown()
		q := NewQueue[int](k, "q")
		s := k.NewSignal("s")
		rng := k.NewRand("jitter")
		for i := 0; i < 4; i++ {
			i := i
			k.Spawn(fmt.Sprintf("w%d", i), func(p *Proc) {
				for j := 0; j < 3; j++ {
					p.Sleep(Time(rng.Intn(50)))
					q.Put(i*10 + j)
					log = append(log, fmt.Sprintf("put %d@%d", i*10+j, p.Now()))
				}
				p.WaitTimeout(s, Forever)
				log = append(log, fmt.Sprintf("woke %d@%d", i, p.Now()))
			})
		}
		got := 0
		k.Start("collector", func(p *Proc) (Time, StepStatus) {
			for ; got < 12; got++ {
				v, ok := q.TryRecv()
				if !ok {
					return q.Await(Forever)
				}
				log = append(log, fmt.Sprintf("got %d@%d", v, p.Now()))
			}
			s.Broadcast()
			return 0, StepDone
		})
		k.Run()
		return log
	}
	a, b := run(), run()
	if len(a) != len(b) {
		t.Fatalf("lengths differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("divergence at %d: %q vs %q", i, a[i], b[i])
		}
	}
}

// Property: for any batch of events scheduled at arbitrary times, they fire
// in nondecreasing time order and same-time events fire in insertion order.
func TestEventOrderProperty(t *testing.T) {
	prop := func(times []uint16) bool {
		k := NewKernel(1)
		type rec struct {
			at  Time
			idx int
		}
		var fired []rec
		for i, raw := range times {
			i := i
			at := Time(raw)
			k.At(at, func() { fired = append(fired, rec{at, i}) })
		}
		k.Run()
		if len(fired) != len(times) {
			return false
		}
		for i := 1; i < len(fired); i++ {
			if fired[i].at < fired[i-1].at {
				return false
			}
			if fired[i].at == fired[i-1].at && fired[i].idx < fired[i-1].idx {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// Property: Sleep durations accumulate exactly.
func TestSleepAccumulationProperty(t *testing.T) {
	prop := func(ds []uint8) bool {
		k := NewKernel(1)
		defer k.Shutdown()
		var total Time
		for _, d := range ds {
			total += Time(d)
		}
		var end Time = -1
		k.Spawn("p", func(p *Proc) {
			for _, d := range ds {
				p.Sleep(Time(d))
			}
			end = p.Now()
		})
		k.Run()
		return end == total
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestSpawnFromProc(t *testing.T) {
	k := NewKernel(1)
	var childRan bool
	k.Spawn("parent", func(p *Proc) {
		p.Sleep(10)
		k.Spawn("child", func(c *Proc) {
			c.Sleep(5)
			childRan = true
		})
		p.Sleep(100)
	})
	k.Run()
	defer k.Shutdown()
	if !childRan {
		t.Error("child process did not run")
	}
}

// TestYield: a sleep of zero yields to whatever else is due now.
func TestYield(t *testing.T) {
	k := NewKernel(1)
	var order []string
	k.Spawn("a", func(p *Proc) {
		order = append(order, "a1")
		p.Sleep(0)
		order = append(order, "a2")
	})
	k.Spawn("b", func(p *Proc) {
		order = append(order, "b1")
	})
	k.Run()
	defer k.Shutdown()
	// a runs first (spawned first), yields, b runs, then a resumes.
	want := []string{"a1", "b1", "a2"}
	for i := range want {
		if i >= len(order) || order[i] != want[i] {
			t.Fatalf("order = %v, want %v", order, want)
		}
	}
}

// Regression: TryRecv must not pin consumed items. The old
// implementation kept the consumed prefix of the backing array alive
// (q.items = q.items[1:]); the ring zeroes each consumed slot.
func TestQueueReleasesConsumedItems(t *testing.T) {
	k := NewKernel(1)
	q := NewQueue[*int](k, "q")
	for i := 0; i < 4; i++ {
		v := i
		q.Put(&v)
	}
	for i := 0; i < 3; i++ {
		if _, ok := q.TryRecv(); !ok {
			t.Fatal("TryRecv failed")
		}
	}
	live := 0
	for _, p := range q.ring.items {
		if p != nil {
			live++
		}
	}
	if live != 1 {
		t.Errorf("backing array holds %d live pointers, want 1 (consumed slots must be zeroed)", live)
	}
}

// The ring must preserve FIFO order across many wraparounds and grows.
func TestQueueRingWraparound(t *testing.T) {
	k := NewKernel(1)
	q := NewQueue[int](k, "q")
	next, want := 0, 0
	for round := 0; round < 50; round++ {
		for i := 0; i < 3+round%5; i++ {
			q.Put(next)
			next++
		}
		for i := 0; i < 2+round%4 && q.Len() > 0; i++ {
			v, ok := q.TryRecv()
			if !ok || v != want {
				t.Fatalf("round %d: got (%d,%v), want %d", round, v, ok, want)
			}
			want++
		}
	}
	for q.Len() > 0 {
		v, _ := q.TryRecv()
		if v != want {
			t.Fatalf("drain: got %d, want %d", v, want)
		}
		want++
	}
	if want != next {
		t.Fatalf("consumed %d items, produced %d", want, next)
	}
}

// Regression: Drain must hand out a fresh slice, not the queue's
// internal storage (later Puts must not mutate the drained snapshot).
func TestQueueDrainReturnsCopy(t *testing.T) {
	k := NewKernel(1)
	q := NewQueue[int](k, "q")
	q.Put(1)
	q.Put(2)
	got := q.Drain()
	q.Put(99)
	q.Put(98)
	if len(got) != 2 || got[0] != 1 || got[1] != 2 {
		t.Errorf("drained snapshot corrupted by later Puts: %v", got)
	}
}

// The Sleep fast path (in-place clock advance) must keep process
// interleaving identical to the general enqueue-and-block path: the same
// workload runs with the fast path forced off as a reference.
// TestSchedulerDifferential is the randomized version.
func TestSleepFastPathInterleaving(t *testing.T) {
	run := func(nproc int, noFastPath bool) []string {
		debugNoFastPath = noFastPath
		defer func() { debugNoFastPath = false }()
		var log []string
		k := NewKernel(1)
		defer k.Shutdown()
		for i := 0; i < nproc; i++ {
			i := i
			k.Spawn(fmt.Sprintf("p%d", i), func(p *Proc) {
				for j := 0; j < 20; j++ {
					p.Sleep(Time(3 + 2*i))
					log = append(log, fmt.Sprintf("p%d@%d", i, p.Now()))
				}
			})
		}
		k.Run()
		return log
	}
	// n=1 always advances in place, n>=2 mixes that with wake-list
	// switches; each must match the reference exactly.
	for _, n := range []int{1, 2, 5} {
		fast, ref := run(n, false), run(n, true)
		if len(fast) != len(ref) {
			t.Fatalf("n=%d: lengths differ: fast %d vs reference %d", n, len(fast), len(ref))
		}
		for i := range fast {
			if fast[i] != ref[i] {
				t.Fatalf("n=%d: divergence at %d: fast %q vs reference %q", n, i, fast[i], ref[i])
			}
		}
	}
}

// TestStepsInterleaved: two step processes whose sleeps interleave — each
// one's wake is always due before the other's sleep ends, so no sleep
// takes the in-place path. Every call of each step is given its own
// process, the processes finish when their steps answer StepDone, and
// nothing switches.
func TestStepsInterleaved(t *testing.T) {
	const steps = 1000
	k := NewKernel(1)
	defer k.Shutdown()
	var ended [2]Time
	for i, offset := range []Time{0, 5} {
		n := -1
		var self *Proc
		self = k.Start(fmt.Sprintf("stepper%d", i), func(p *Proc) (Time, StepStatus) {
			if p != self {
				t.Errorf("stepper%d: step %d was given process %v, want %v", i, n, p, self)
			}
			switch n++; n {
			case 0:
				return offset, StepMore
			case steps + 1:
				ended[i] = p.Now()
				return 0, StepDone
			}
			return 10, StepMore
		})
	}
	k.Run()
	if want := [2]Time{10 * steps, 5 + 10*steps}; ended != want {
		t.Errorf("steps ended at %v, want %v", ended, want)
	}
	if k.LiveProcs() != 0 || k.Switches() != 0 {
		t.Errorf("LiveProcs = %d and %d switches, want 0 and 0", k.LiveProcs(), k.Switches())
	}
}

// --- bounded-progress watchdog ---

// TestStallWatchdogYieldLoop: a process yielding forever never advances
// virtual time; the watchdog must stop the kernel and name it — whether
// it is a Spawn body yielding in place, or a zero-charge step process the
// scheduler keeps stepping.
func TestStallWatchdogYieldLoop(t *testing.T) {
	cases := []struct {
		name  string
		setup func(k *Kernel)
	}{
		{"in place", func(k *Kernel) {
			k.Spawn("spinner", func(p *Proc) {
				p.Sleep(5 * Microsecond) // make real progress first
				for {
					p.Sleep(0)
				}
			})
		}},
		{"inline steps", func(k *Kernel) {
			k.Start("spinner", func(p *Proc) (Time, StepStatus) {
				if p.Now() == 0 {
					return 5 * Microsecond, StepMore
				}
				return 0, StepMore
			})
			// Due at the spinner's first yield, so that one enqueues; from
			// then on the spinner yields in place.
			k.Spawn("bystander", func(p *Proc) {
				p.Sleep(5 * Microsecond)
				p.Sleep(Second)
			})
		}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			k := NewKernel(1)
			defer k.Shutdown()
			k.SetStallLimit(100)
			c.setup(k)
			k.RunUntil(Second)
			name, at, ok := k.Stalled()
			if !ok {
				t.Fatal("watchdog did not trip on a yield livelock")
			}
			if name != "spinner" {
				t.Errorf("stalled proc = %q, want %q", name, "spinner")
			}
			if at != 5*Microsecond {
				t.Errorf("stall pinned at %v, want 5us", at)
			}
			if !k.Stopped() {
				t.Error("stalled kernel is not stopped")
			}
			// A stall is sticky: ClearStop must not re-arm the scheduler.
			k.ClearStop()
			if !k.Stopped() {
				t.Error("ClearStop re-armed a stalled kernel")
			}
		})
	}
}

// TestStallWatchdogEventLoop: a callback endlessly rescheduling itself
// at the current instant flows through the dispatcher; the watchdog
// counts those dispatches too and stops the loop.
func TestStallWatchdogEventLoop(t *testing.T) {
	k := NewKernel(1)
	k.SetStallLimit(100)
	fires := 0
	var spin func()
	spin = func() {
		fires++
		k.At(k.Now(), spin)
	}
	k.At(0, spin)
	k.RunUntil(Second)
	if _, at, ok := k.Stalled(); !ok {
		t.Fatal("watchdog did not trip on an event livelock")
	} else if at != 0 {
		t.Errorf("stall pinned at %v, want 0", at)
	}
	if fires > 102 {
		t.Errorf("loop dispatched %d times after the limit of 100", fires)
	}
}

// TestStallWatchdogDisabled: zero limit (the default) never trips, and
// progress resets the dispatch counter.
func TestStallWatchdogDisabled(t *testing.T) {
	k := NewKernel(1)
	done := false
	k.Spawn("worker", func(p *Proc) {
		for i := 0; i < 1000; i++ {
			p.Sleep(0)
		}
		done = true
	})
	k.RunUntil(Second)
	if !done {
		t.Fatal("bounded yield loop did not finish with watchdog disabled")
	}
	if _, _, ok := k.Stalled(); ok {
		t.Error("Stalled reports true with no limit set")
	}

	// With a limit, periodic progress keeps the counter at bay.
	k2 := NewKernel(1)
	k2.SetStallLimit(100)
	done = false
	k2.Spawn("worker", func(p *Proc) {
		for i := 0; i < 2000; i++ {
			if i%50 == 0 {
				p.Sleep(Microsecond)
			} else {
				p.Sleep(0)
			}
		}
		done = true
	})
	k2.RunUntil(Second)
	if !done {
		t.Fatal("progressing worker was killed by the watchdog")
	}
	if _, _, ok := k2.Stalled(); ok {
		t.Error("watchdog tripped despite periodic progress")
	}
}

// TestProcPanicReachesDriver pins the panic hand-off: a panic inside a
// process — a step, or a Spawn body's coroutine — must re-raise on the
// goroutine that called Run, where callers can recover, not crash the
// program on a goroutine nobody owns. The kernel is left stopped, and
// must still shut down cleanly afterwards.
func TestProcPanicReachesDriver(t *testing.T) {
	// stepBomb's second call panics: 5 ms in.
	stepBomb := func(k *Kernel) {
		n := 0
		k.Start("bomb", func(*Proc) (Time, StepStatus) {
			if n++; n == 2 {
				panic("boom")
			}
			return 5 * Millisecond, StepMore
		})
	}
	cases := []struct {
		name  string
		bomb  func(k *Kernel)
		slice Time // a RunUntil before the Run that panics, if nonzero
		live  int  // processes not finished after the panic
	}{
		// The bystander survives, sleeping; the coroutine that panicked
		// finished on its way out.
		{"process panic", func(k *Kernel) {
			k.Spawn("bomb", func(p *Proc) {
				p.Sleep(5 * Millisecond)
				panic("boom")
			})
		}, 0, 1},
		// A step that panicked is not finished: Shutdown retires it.
		{"step panic", stepBomb, 0, 2},
		// The panic is the first dispatch of the Run.
		{"step panic, first dispatch of a run", stepBomb, 4500 * Microsecond, 2},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			before := runtime.NumGoroutine()
			k := NewKernel(1)
			defer k.Shutdown()
			wakes := 0
			k.Spawn("bystander", func(p *Proc) {
				for i := 0; i < 100; i++ {
					p.Sleep(Millisecond)
					wakes++
				}
			})
			c.bomb(k)
			if c.slice != 0 {
				k.RunUntil(c.slice)
			}
			var got any
			func() {
				defer func() { got = recover() }()
				k.Run()
			}()
			if got != "boom" {
				t.Fatalf("recovered %v on the driver goroutine, want boom", got)
			}
			if !k.Stopped() {
				t.Error("kernel is not stopped after the panic")
			}
			seen := wakes
			if k.Run(); wakes != seen {
				t.Errorf("a second Run dispatched %d more wakes on the stopped kernel", wakes-seen)
			}
			// Shutdown must unwind whoever is still parked without a
			// second panic; a coroutine the panic unwound is already gone.
			if k.LiveProcs() != c.live {
				t.Errorf("LiveProcs = %d after the panic, want %d", k.LiveProcs(), c.live)
			}
			k.Shutdown()
			if k.LiveProcs() != 0 {
				t.Errorf("LiveProcs = %d after Shutdown, want 0", k.LiveProcs())
			}
			if n := runtime.NumGoroutine(); n != before {
				t.Errorf("%d goroutines after Shutdown, %d before the first Spawn", n, before)
			}
		})
	}
}
