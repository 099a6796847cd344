package sim

import (
	"fmt"
	"math/rand"
	"runtime"
	"strings"
	"testing"
)

// schedMode selects the discipline schedTrace runs under: the kernel as
// shipped, or one of the references it must be indistinguishable from.
type schedMode int

const (
	schedFast       schedMode = iota // in-place sleeps
	schedNoFastPath                  // every sleep enqueues a wake
	schedLiteral                     // step processes replaced by Spawn bodies looping over the same steps
	schedNoAhead                     // quiet polls taken one sleep at a time, loudly, never promised
)

// recvTimeout receives from q within d, for a Spawn body: the queue's
// head if it has one, else a wait for its next Put, and after a wake that
// finds it empty a wait for the rest of d.
func recvTimeout[T any](p *Proc, q *Queue[T], d Time) (T, bool) {
	deadline := p.Now() + d
	for {
		if v, ok := q.TryRecv(); ok {
			return v, true
		}
		remain := deadline - p.Now()
		if remain <= 0 || !p.WaitTimeout(q.avail, remain) {
			var zero T
			return zero, false
		}
	}
}

// schedTrace runs one seeded random scenario and returns its dispatch
// trace: a (time, process-or-callback, outcome) record wherever a process
// comes back from a blocking primitive, a step runs or a callback fires.
// The scenario is 1–64 Spawn bodies running random programs over shared
// signals, queues and cancelable callbacks, spawning children and
// starting step processes, driven in RunUntil slices with Stop/ClearStop
// in between;
// parked far-future callbacks sit in the heap throughout (the clientsim
// retransmission-timer shape). Some step bodies hold a poll storm: a run
// of quiet polls — sleep a, sleep b, touch nothing but the counts of polls
// begun and done, which every record reports — which the process promises (PromiseQuiet) and retires ahead, one sleep
// for as many polls as end before NextLoud, and which leaves one record
// when it is over. Every random draw comes from the drawing process's own
// stream, so the trace depends on the seed and on dispatch order only.
// schedAhead counts the polls schedTrace's storms retired ahead.
var schedAhead int

func schedTrace(seed int64, parked int, mode schedMode) []string {
	debugNoFastPath = mode == schedNoFastPath
	defer func() { debugNoFastPath = false }()
	k := NewKernel(seed)
	defer k.Shutdown()
	var trace []string
	// begun and done count the polls every storm has begun and finished. A
	// storm that retires polls ahead counts them ahead, so every record
	// carries the counts: were anything loud dispatched inside a window
	// slept over in one sleep, or at its last instant, its record would
	// show a state the step-by-step run never had.
	begun, done := 0, 0
	log := func(who, what string) {
		trace = append(trace, fmt.Sprintf("%d %s %s [%d/%d]", k.Now(), who, what, begun, done))
	}
	sigs := []*Signal{k.NewSignal("s0"), k.NewSignal("s1"), k.NewSignal("s2")}
	queues := []*Queue[int]{NewQueue[int](k, "q0"), NewQueue[int](k, "q1")}
	var handles []Handle
	durations := []Time{-3, 0, 0, 1, 5, 5, 10, 10, 10, 25, 100, 1000}

	drv := rand.New(rand.NewSource(seed))
	for i := 0; i < parked; i++ {
		who := fmt.Sprintf("parked%d", i)
		handles = append(handles, k.At(Time(2000+drv.Intn(60000)), func() { log(who, "fire") }))
	}

	// stepBody draws a step process: a sequence of pieces, each doing
	// something a scheduler-context callback may do (or nothing) and then
	// charging a random duration, zero and negative included. Some pieces
	// charge nothing and run on into the next; some end the step with a
	// wait on a signal or a queue's arrival (StepWait), with a timeout or
	// none, and log how it ended, and what the queue then held, when the
	// step is called again. The last logs that the process is over.
	type piece struct {
		kind int
		d    Time
		s    *Signal
		q    *Queue[int]
		// A poll storm (kind 10): polls of sleep a, sleep b.
		polls int
		a, b  Time
		// A wait the step ends with (kinds 8 and 11 on s, 9 and 12 on q's
		// arrival): timeout d, or none for kinds 11 and 12.
		forever bool
	}
	quiet := StepQuiet
	if mode == schedNoAhead {
		quiet = StepMore
	}
	stepBody := func(name string, r *rand.Rand) StepFunc {
		pieces := make([]piece, 1+r.Intn(6))
		for i := range pieces {
			pieces[i] = piece{kind: r.Intn(13), d: durations[r.Intn(len(durations))],
				s: sigs[r.Intn(len(sigs))], q: queues[r.Intn(len(queues))],
				polls: 1 + r.Intn(40), a: Time(1 + r.Intn(3)), b: Time(2 + r.Intn(12)),
				forever: r.Intn(4) == 0}
		}
		i := 0
		// The storm in progress: polls to go, between a poll's two sleeps,
		// a poll begun and not yet counted done.
		left, half, open := -1, false, false
		// awaiting: the step ended with piece i's wait, which has now ended.
		awaiting := false
		return func(p *Proc) (Time, StepStatus) {
			if awaiting {
				awaiting = false
				pc := pieces[i]
				who := fmt.Sprintf("%s.step%d", name, i)
				i++
				switch pc.kind {
				case 8:
					log(who, fmt.Sprint("waited ", !p.TimedOut()))
				case 9:
					v, ok := pc.q.TryRecv()
					log(who, fmt.Sprint("recv ", v, ok))
				case 11:
					log(who, fmt.Sprint("awaited ", !p.TimedOut()))
				default:
					v, ok := pc.q.TryRecv()
					log(who, fmt.Sprint("awaited ", !p.TimedOut(), " recv ", v, ok))
				}
			}
			for i < len(pieces) {
				pc := pieces[i]
				who := fmt.Sprintf("%s.step%d", name, i)
				if pc.kind == 10 {
					if half {
						half = false
						return pc.b, quiet
					}
					if open {
						open = false
						done++
					}
					switch {
					case left < 0:
						left = pc.polls
					case left == 0:
						// The promise ended at this instant: loud again.
						left = -1
						i++
						log(who, "polled")
						continue
					}
					if mode != schedNoAhead {
						now, per := k.Now(), pc.a+pc.b
						loud, clear := p.PromiseQuiet(now+Time(left)*per, pc.a, pc.b)
						if j := min(left, int((loud-now-1)/per)); clear && j > 0 {
							left -= j
							begun += j
							done += j
							schedAhead += j
							return Time(j) * per, StepQuiet
						}
					}
					left--
					begun++
					half, open = true, true
					return pc.a, quiet
				}
				i++
				switch pc.kind {
				case 0, 1, 2, 3:
					log(who, "ran")
				case 4:
					log(who, "broadcast")
					pc.s.Broadcast()
				case 5:
					log(who, "put")
					pc.q.Put(i)
				case 6:
					log(who, "timer")
					handles = append(handles, k.After(pc.d, func() { log(who, "fire") }))
				case 7:
					log(who, "no charge")
					continue
				case 8:
					i-- // the wait's end finishes the piece
					awaiting = true
					return pc.s.Await(pc.d)
				case 9:
					i--
					awaiting = true
					return pc.q.Await(pc.d)
				case 11, 12:
					i-- // the wait's end finishes the piece
					awaiting = true
					d := pc.d
					if pc.forever {
						d = Forever
					}
					log(who, "await")
					if pc.kind == 11 {
						return pc.s.Await(d)
					}
					return pc.q.Await(d)
				}
				return pc.d, StepMore
			}
			log(name, "stepped")
			return 0, StepDone
		}
	}

	spawned := 0
	var spawn func(name string, seed int64)
	spawn = func(name string, seed int64) {
		spawned++
		r := rand.New(rand.NewSource(seed))
		steps := 10 + r.Intn(40)
		k.Spawn(name, func(p *Proc) {
			log(name, "start")
			for j := 0; j < steps; j++ {
				d := durations[r.Intn(len(durations))]
				s := sigs[r.Intn(len(sigs))]
				q := queues[r.Intn(len(queues))]
				switch r.Intn(16) {
				case 0, 1, 2, 3, 4:
					p.Sleep(d)
					log(name, "slept")
				case 5:
					log(name, fmt.Sprint("waited ", p.WaitTimeout(s, d)))
				case 6:
					if r.Intn(3) == 0 {
						p.WaitTimeout(s, Forever) // may never return: Shutdown unwinds it
						log(name, "waited")
					}
				case 7, 8:
					s.Broadcast()
				case 9:
					q.Put(j)
				case 10:
					v, ok := recvTimeout(p, q, d)
					log(name, fmt.Sprint("recv ", v, ok))
				case 11:
					// A callback that cancels some other handle, and may
					// broadcast or stop the run.
					who := fmt.Sprintf("%s.cb%d", name, j)
					victim, act := r.Int(), r.Intn(8)
					fn := func() {
						log(who, "fire")
						handles[victim%len(handles)].Cancel()
						switch act {
						case 0:
							s.Broadcast()
						case 1:
							k.Stop()
						}
					}
					if r.Intn(2) == 0 {
						handles = append(handles, k.After(d, fn))
					} else {
						handles = append(handles, k.At(k.Now()+d, fn))
					}
				case 12:
					if len(handles) > 0 {
						handles[r.Intn(len(handles))].Cancel()
					}
					if r.Intn(10) == 0 {
						k.Stop() // keeps running until the next block
					}
				case 13:
					if spawned < 96 {
						spawn(fmt.Sprintf("%s.%d", name, j), r.Int63())
					}
				case 14, 15:
					child := fmt.Sprintf("%s.%d", name, j)
					step := stepBody(child, r)
					if mode != schedLiteral {
						k.Start(child, step)
						break
					}
					k.Spawn(child, func(p *Proc) {
						for {
							d, st := step(p)
							if st == StepDone {
								return
							}
							if st == StepWait {
								s := k.await
								k.await = nil
								p.WaitTimeout(s, d)
							} else {
								p.Sleep(d)
							}
						}
					})
				}
			}
			log(name, "end")
		})
	}
	for i, n := 0, 1+drv.Intn(64); i < n; i++ {
		spawn(fmt.Sprintf("p%d", i), drv.Int63())
	}

	var t Time
	for i := 0; i < 200; i++ {
		t += Time(1 + drv.Intn(300))
		k.RunUntil(t)
		log("driver", "pause") // the clock's holder sees the state too
		if k.Stopped() {
			log("driver", "stopped")
			k.ClearStop()
		}
	}
	for k.Run(); k.Stopped(); k.Run() {
		log("driver", "stopped")
		k.ClearStop()
	}
	log("driver", fmt.Sprint("live ", k.LiveProcs()))
	return trace
}

// TestSchedulerDifferential: the kernel's shortcuts must be
// indistinguishable from the disciplines they abbreviate — same dispatch
// trace, record for record, on every seed. The sleep fast path against
// every sleep enqueueing a wake; a step process against a Spawn body that
// loops over the same step, sleeping or waiting between calls (the
// adapter against the model it adapts to); and polls retired ahead under a promise against
// every poll taken sleep by sleep — the promise contract's soundness:
// whatever NextLoud admits, among random processes, signals, queues,
// callbacks, Stop and RunUntil slices, nothing else's record moves. Every
// fourth seed parks 500 far-future callbacks in the heap under the
// process wakes.
func TestSchedulerDifferential(t *testing.T) {
	refs := []struct {
		name string
		mode schedMode
	}{
		{"no fast path", schedNoFastPath},
		{"literal step loop", schedLiteral},
		{"no polls ahead", schedNoAhead},
	}
	ahead := 0
	awaited := map[bool]int{} // StepWaits that ended, by "woken by Broadcast"
	for seed := int64(1); seed <= 240; seed++ {
		parked := 0
		if seed%4 == 0 {
			parked = 500
		}
		schedAhead = 0
		fast := schedTrace(seed, parked, schedFast)
		ahead += schedAhead
		for _, rec := range fast {
			switch {
			case strings.Contains(rec, " awaited true"):
				awaited[true]++
			case strings.Contains(rec, " awaited false"):
				awaited[false]++
			}
		}
		if len(fast) < 20 {
			t.Fatalf("seed %d: trace has only %d records; the scenario did not run", seed, len(fast))
		}
		for _, r := range refs {
			ref := schedTrace(seed, parked, r.mode)
			for i := 0; i < len(fast) || i < len(ref); i++ {
				if i >= len(fast) || i >= len(ref) || fast[i] != ref[i] {
					at := func(tr []string) string {
						if i < len(tr) {
							return tr[i]
						}
						return "(end of trace)"
					}
					t.Fatalf("seed %d (parked %d): divergence at record %d of %d/%d: fast %q vs %s %q",
						seed, parked, i, len(fast), len(ref), at(fast), r.name, at(ref))
				}
			}
		}
	}
	if ahead < 10000 {
		t.Errorf("the storms retired %d polls ahead over all seeds; the promise path is not being exercised", ahead)
	}
	if awaited[true] < 1000 || awaited[false] < 1000 {
		t.Errorf("step waits ended %d times by Broadcast and %d by timeout; the wait path is not being exercised",
			awaited[true], awaited[false])
	}
	t.Logf("%d polls retired ahead; step waits ended %d times by Broadcast, %d by timeout",
		ahead, awaited[true], awaited[false])
}

// --- process lifecycle ---

// TestShutdownLifecycle: wherever its processes are — never started,
// sleeping or waiting, finished — Shutdown leaves no live process and no
// goroutine behind, and a second Shutdown is a no-op.
func TestShutdownLifecycle(t *testing.T) {
	cases := []struct {
		name string
		live int // LiveProcs after the run, before Shutdown
		run  func(k *Kernel)
	}{
		{"never started", 3, func(k *Kernel) {
			for i := 0; i < 3; i++ {
				k.Spawn("idle", func(p *Proc) { t.Error("a never-dispatched process ran") })
			}
		}},
		{"parked in Sleep", 2, func(k *Kernel) {
			for i := 0; i < 2; i++ {
				k.Spawn("sleeper", func(p *Proc) { p.Sleep(Second) })
			}
			k.RunUntil(Millisecond)
		}},
		{"parked in Wait, WaitTimeout, Recv", 3, func(k *Kernel) {
			s := k.NewSignal("never")
			q := NewQueue[int](k, "empty")
			k.Spawn("wait", func(p *Proc) { p.WaitTimeout(s, Forever) })
			k.Spawn("waittimeout", func(p *Proc) { p.WaitTimeout(s, Second) })
			k.Start("recv", func(*Proc) (Time, StepStatus) { return q.Await(Forever) })
			k.RunUntil(Millisecond)
		}},
		{"step processes, one sleeping and one waiting", 2, func(k *Kernel) {
			s := k.NewSignal("never")
			k.Start("sleeper", func(*Proc) (Time, StepStatus) { return 2, StepMore })
			k.Start("waiter", func(*Proc) (Time, StepStatus) { return s.Await(Second) })
			k.RunUntil(Millisecond)
		}},
		{"finished", 0, func(k *Kernel) {
			for i := 0; i < 3; i++ {
				k.Spawn("worker", func(p *Proc) { p.Sleep(10) })
			}
			k.Run()
		}},
		{"a mix, one spawned by another", 3, func(k *Kernel) {
			s := k.NewSignal("never")
			k.Spawn("done", func(p *Proc) { p.Sleep(10) })
			k.Spawn("parent", func(p *Proc) {
				k.Spawn("child", func(c *Proc) { c.WaitTimeout(s, Forever) })
				p.Sleep(Second)
			})
			k.RunUntil(Millisecond)
			k.Spawn("late", func(p *Proc) {})
		}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			before := runtime.NumGoroutine()
			k := NewKernel(1)
			c.run(k)
			if k.LiveProcs() != c.live {
				t.Fatalf("LiveProcs = %d before Shutdown, want %d", k.LiveProcs(), c.live)
			}
			for i := 0; i < 2; i++ {
				k.Shutdown()
				if k.LiveProcs() != 0 {
					t.Fatalf("LiveProcs = %d after Shutdown #%d, want 0", k.LiveProcs(), i+1)
				}
				if n := runtime.NumGoroutine(); n != before {
					t.Fatalf("%d goroutines after Shutdown #%d, %d before the first Spawn", n, i+1, before)
				}
			}
			if at, ok := k.NextEventTime(); ok {
				t.Errorf("a wake is still pending at %v after Shutdown", at)
			}
		})
	}
}

// TestShutdownRunsDeferredCalls: a parked process is unwound, not
// abandoned — its deferred calls run during Shutdown.
func TestShutdownRunsDeferredCalls(t *testing.T) {
	k := NewKernel(1)
	released := false
	k.Spawn("holder", func(p *Proc) {
		defer func() { released = true }()
		p.Sleep(Second)
	})
	k.RunUntil(Millisecond)
	if released {
		t.Fatal("deferred call ran while the process was merely parked")
	}
	k.Shutdown()
	if !released {
		t.Fatal("Shutdown did not unwind the parked process's deferred calls")
	}
}

// TestStopFromProcessPreservesState: a process that stops the run keeps
// going until it next blocks; ClearStop + Run resumes it exactly there,
// locals intact.
func TestStopFromProcessPreservesState(t *testing.T) {
	k := NewKernel(1)
	defer k.Shutdown()
	var marks []string
	k.Spawn("stopper", func(p *Proc) {
		sum := 0
		for i := 1; i <= 3; i++ {
			sum += i
			p.Sleep(10)
			if i == 2 {
				k.Stop()
				marks = append(marks, "after stop") // still running
			}
		}
		marks = append(marks, fmt.Sprintf("sum=%d@%d", sum, p.Now()))
	})
	k.Spawn("bystander", func(p *Proc) {
		p.Sleep(25)
		marks = append(marks, fmt.Sprintf("bystander@%d", p.Now()))
	})
	if end := k.Run(); end != 20 || !k.Stopped() {
		t.Fatalf("first Run ended at %v, stopped=%v; want 20, true", end, k.Stopped())
	}
	if len(marks) != 1 || marks[0] != "after stop" {
		t.Fatalf("marks after the stopped run = %v, want [after stop]", marks)
	}
	if k.Run(); len(marks) != 1 {
		t.Fatalf("Run on a stopped kernel dispatched: %v", marks)
	}
	k.ClearStop()
	k.Run()
	want := []string{"after stop", "bystander@25", "sum=6@30"}
	if fmt.Sprint(marks) != fmt.Sprint(want) {
		t.Fatalf("marks = %v, want %v", marks, want)
	}
	if k.LiveProcs() != 0 {
		t.Fatalf("LiveProcs = %d, want 0", k.LiveProcs())
	}
}
