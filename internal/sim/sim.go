// Package sim provides a deterministic, process-oriented discrete-event
// simulation kernel. All components of the fault-tolerance reproduction
// (processors, hypervisors, disks, network links) advance a shared virtual
// clock through this kernel, so entire multi-machine experiments are
// reproducible bit-for-bit from a seed.
//
// The kernel is cooperative: at any instant exactly one process (or one
// event callback) runs. Processes are coroutines that block inside kernel
// primitives (Sleep, Wait, Recv); the kernel switches into exactly one of
// them at a time, so no locking is needed inside simulated components and
// execution order is a deterministic function of (event time, schedule
// order).
//
// Two structures hold what is pending, ordered by one (time, seq) key: a
// binary heap of callback events, and a short sorted list of process
// wakes (a blocked process has at most one: its sleep, spawn, broadcast
// resume or wait timeout). The hot path allocates nothing (popped events
// are pooled on a free list; a wake is a few fields of its Proc) and
// never enters the Go scheduler (a process switch is two coroutine
// switches, process → kernel → process); a process that sleeps when
// nothing else is due first simply advances the clock in place.
//
// A process whose work is a run of short non-blocking pieces separated by
// sleeps and waits hands the kernel that run as a step function
// (Proc.RunSteps). While the process is parked in one of those sleeps, or
// on a signal a step named (Signal.Await), the kernel dispatches its wake
// like a callback event — it calls the next step inline, on whatever
// stack is scheduling — and switches into the process only when the run
// is over or a step says it might block. Dispatch order and every (time,
// seq) key are those of the plain loop that sleeps or waits between
// steps. The kernel counts the switches it does make (Switches).
//
// Such a process may also know its own future: a replica whose guest
// spins on a device register repeats one pair of sleeps, touching nothing
// but its own state, until something reaches it from outside. It says so
// with a promise (Proc.PromiseQuiet: until U my dispatches touch only my
// own state and fall on the instants now + i(a+b) + {0, a}), and in return
// the kernel answers the one question that makes the future safe to take
// early — when can something loud next be dispatched (NextLoud). A
// process that sleeps to a point strictly before that instant has slept
// past nothing that could have seen, or changed, what it did on the way.
// Loud is the default: every event callback, every dispatch into a
// process and every entry to the scheduling loop voids all promises (one
// generation counter), and so does a step that does not say, with
// StepQuiet, that it kept its own.
package sim

import (
	"fmt"
	"hash/fnv"
	"iter"
	"math/rand"
	"slices"
)

// Time is a virtual timestamp or duration in simulated nanoseconds.
type Time int64

// Convenient duration units in simulated nanoseconds.
const (
	Nanosecond  Time = 1
	Microsecond Time = 1000
	Millisecond Time = 1000 * Microsecond
	Second      Time = 1000 * Millisecond
)

// Forever is a sentinel duration meaning "no timeout".
const Forever Time = 1<<62 - 1

// String renders a Time using the most natural unit.
func (t Time) String() string {
	switch {
	case t >= Second:
		return fmt.Sprintf("%.6gs", float64(t)/float64(Second))
	case t >= Millisecond:
		return fmt.Sprintf("%.6gms", float64(t)/float64(Millisecond))
	case t >= Microsecond:
		return fmt.Sprintf("%.6gus", float64(t)/float64(Microsecond))
	default:
		return fmt.Sprintf("%dns", int64(t))
	}
}

// Seconds converts t to floating-point seconds.
func (t Time) Seconds() float64 { return float64(t) / float64(Second) }

// Micros converts t to floating-point microseconds.
func (t Time) Micros() float64 { return float64(t) / float64(Microsecond) }

// event is a scheduled callback. Events with equal time fire in
// scheduling order (seq), which keeps the simulation deterministic.
// Events are recycled through the kernel free list; gen distinguishes
// incarnations so a stale Handle cannot cancel a reused event.
type event struct {
	k     *Kernel
	at    Time
	seq   uint64
	gen   uint64
	fn    func()
	fnArg func(uint64) // set instead of fn by AfterArg, called with arg
	arg   uint64
	index int // heap index, -1 when not queued
}

// before reports whether e is ordered before the occurrence (at, seq).
func (e *event) before(at Time, seq uint64) bool {
	return e.at < at || (e.at == at && e.seq < seq)
}

// Kernel is the simulation scheduler. Create one with NewKernel, spawn
// processes with Spawn, then call Run (or RunUntil). A Kernel must be
// driven by one goroutine at a time (the kernel goroutine; not one
// locked to an OS thread): processes are coroutines that goroutine
// switches into and that switch back to it when they block. Callback
// events, and the steps of a process parked in RunSteps, run on
// whichever of those stacks is scheduling at the time and must not
// block.
type Kernel struct {
	now     Time
	seq     uint64
	events  []*event // pending callbacks: a binary min-heap on (at, seq)
	free    []*event // recycled events
	wakes   []*Proc  // pending process wakes, latest first: the tail is next
	seed    int64
	procs   []*Proc
	stopped bool
	limit   Time        // RunUntil bound, or <0 for none
	succ    *Proc       // successor chosen by the process that just parked
	inline  bool        // a step is running inline (stepInline): blocking is a bug
	nprocs  int         // live (not yet finished) processes
	idleFn  func() bool // optional hook when nothing is pending
	// await is the signal a step named with Signal.Await, until the kernel
	// parks the step's process on it (StepWait).
	await *Signal
	// switches counts switches into processes (Switches).
	switches uint64
	// loud is the promise generation: a promise stands while its process's
	// quietGen equals it, and every loud occurrence advances it. It starts
	// at 1, so a process that never promised never matches.
	loud uint64

	// Bounded-progress watchdog (SetStallLimit): dispatch bookkeeping
	// that detects a scheduler livelock — virtual time pinned at one
	// instant while dispatches keep flowing. Zero stallLimit disables
	// the watchdog entirely (one predicted branch per dispatch).
	stallLimit int
	stallCount int
	stallAt    Time
	stallName  string
	stalled    bool
}

// NewKernel returns a kernel whose random streams derive from seed.
func NewKernel(seed int64) *Kernel {
	return &Kernel{seed: seed, limit: -1, loud: 1}
}

// Now returns the current virtual time.
func (k *Kernel) Now() Time { return k.now }

// Seed returns the seed the kernel was created with.
func (k *Kernel) Seed() int64 { return k.seed }

// NewRand returns a deterministic random stream derived from the kernel
// seed and the given name. Distinct names give independent streams, so
// adding a new consumer does not perturb existing ones.
func (k *Kernel) NewRand(name string) *rand.Rand {
	h := fnv.New64a()
	fmt.Fprintf(h, "%d/%s", k.seed, name)
	return rand.New(rand.NewSource(int64(h.Sum64())))
}

// alloc takes an event from the free list (or allocates one).
func (k *Kernel) alloc() *event {
	if n := len(k.free); n > 0 {
		e := k.free[n-1]
		k.free = k.free[:n-1]
		return e
	}
	return &event{k: k, index: -1}
}

// recycle retires an event that has fired or been canceled. The
// generation bump invalidates outstanding Handles.
func (k *Kernel) recycle(e *event) {
	e.gen++
	e.fn, e.fnArg = nil, nil
	k.free = append(k.free, e)
}

// up moves e from heap slot i towards the root until its parent is
// ordered before it.
func (k *Kernel) up(e *event, i int) {
	h := k.events
	for i > 0 {
		parent := (i - 1) / 2
		if h[parent].before(e.at, e.seq) {
			break
		}
		h[i] = h[parent]
		h[i].index = i
		i = parent
	}
	h[i] = e
	e.index = i
}

// down moves e from heap slot i towards the leaves until both children
// are ordered after it.
func (k *Kernel) down(e *event, i int) {
	h := k.events
	for {
		c := 2*i + 1
		if c >= len(h) {
			break
		}
		if r := c + 1; r < len(h) && h[r].before(h[c].at, h[c].seq) {
			c = r
		}
		if !h[c].before(e.at, e.seq) {
			break
		}
		h[i] = h[c]
		h[i].index = i
		i = c
	}
	h[i] = e
	e.index = i
}

// push enqueues e at absolute time at (clamped to now), assigning the
// next scheduling sequence number.
func (k *Kernel) push(e *event, at Time) {
	if at < k.now {
		at = k.now
	}
	e.at = at
	e.seq = k.seq
	k.seq++
	k.events = append(k.events, e)
	k.up(e, len(k.events)-1)
}

// remove takes the event in heap slot i out of the heap, refilling the
// slot with the last leaf.
func (k *Kernel) remove(i int) {
	h := k.events
	n := len(h) - 1
	h[i].index = -1
	last := h[n]
	h[n] = nil
	k.events = h[:n]
	if i == n {
		return
	}
	if i > 0 && last.before(h[(i-1)/2].at, h[(i-1)/2].seq) {
		k.up(last, i)
	} else {
		k.down(last, i)
	}
}

// Handle identifies a scheduled event so that it can be canceled.
type Handle struct {
	e   *event
	gen uint64
}

// Cancel prevents the event from firing. Canceling an already-fired or
// already-canceled event is a no-op.
func (h Handle) Cancel() {
	e := h.e
	if e == nil || e.gen != h.gen || e.index < 0 {
		return
	}
	e.k.remove(e.index)
	e.k.recycle(e)
}

// At schedules fn to run at absolute virtual time at. Event callbacks run
// in kernel context and must not block; use Spawn for blocking behaviour.
func (k *Kernel) At(at Time, fn func()) Handle {
	e := k.alloc()
	e.fn = fn
	k.push(e, at)
	return Handle{e: e, gen: e.gen}
}

// After schedules fn to run d nanoseconds from now.
func (k *Kernel) After(d Time, fn func()) Handle {
	if d < 0 {
		d = 0
	}
	return k.At(k.now+d, fn)
}

// AfterArg schedules fn(arg) to run d nanoseconds from now. It is After
// for a callback that needs one value: the event takes the same (time,
// seq) place After's would, and a function value made once and kept
// schedules without allocating a closure per call.
func (k *Kernel) AfterArg(d Time, fn func(uint64), arg uint64) Handle {
	h := k.At(k.now+d, nil)
	h.e.fnArg, h.e.arg = fn, arg
	return h
}

// enqueue records p's pending wake at absolute time at, keyed exactly
// like an event pushed now. seq is monotonic, so the new wake fires after
// every entry with wakeAt <= at: scanning from the tail (the next wake),
// a near-term sleep settles within a step or two however many far-off
// timeouts are parked, and a memmove is fine at a thousand processes.
func (k *Kernel) enqueue(p *Proc, at Time) {
	p.wakeAt, p.wakeSeq = at, k.seq
	k.seq++
	i := len(k.wakes)
	k.wakes = append(k.wakes, p)
	for ; i > 0 && k.wakes[i-1].wakeAt <= at; i-- {
		k.wakes[i] = k.wakes[i-1]
	}
	k.wakes[i] = p
}

// without returns list with p unlinked, order kept: a pending wake
// withdrawn from k.wakes, a timed-out waiter from its signal's wait list.
func without(list []*Proc, p *Proc) []*Proc {
	if i := slices.Index(list, p); i >= 0 {
		return slices.Delete(list, i, i+1)
	}
	return list
}

// NextEventTime reports the time of the earliest pending occurrence
// (scheduled event or process wake).
func (k *Kernel) NextEventTime() (Time, bool) {
	var t Time
	ok := false
	if len(k.events) > 0 {
		t, ok = k.events[0].at, true
	}
	if n := len(k.wakes); n > 0 && (!ok || k.wakes[n-1].wakeAt < t) {
		t, ok = k.wakes[n-1].wakeAt, true
	}
	return t, ok
}

// NextLoud reports the earliest instant at which something loud can be
// dispatched: an occurrence that may read or write state other than its
// own process's. A process whose own dispatches are quiet (PromiseQuiet)
// may retire any of them that fall strictly before that instant ahead of
// time and sleep to the last of them in one sleep: nothing dispatched on
// the way could have told the difference. It is the minimum over the
// event heap's head (every callback is loud), the wake of every parked
// process that stands under no promise, the end of the promise of every
// one that does, the instant after a RunUntil bound (the caller gets the
// clock back at the bound) and, once Stop has been called, now. The
// caller's own wake does not count: a process asks while it is being
// dispatched, when it has none.
func (k *Kernel) NextLoud() Time {
	if k.stopped {
		return k.now
	}
	t := Forever
	if k.limit >= 0 {
		t = k.limit + 1
	}
	if len(k.events) > 0 && k.events[0].at < t {
		t = k.events[0].at
	}
	// Wakes are sorted and a promise never makes its process loud before
	// its wake, so the scan ends at the first wake at or past the bound.
	for i := len(k.wakes) - 1; i >= 0 && k.wakes[i].wakeAt < t; i-- {
		p := k.wakes[i]
		if p.quietGen != k.loud {
			return p.wakeAt
		}
		t = min(t, max(p.quietUntil, p.wakeAt))
	}
	return t
}

// OnIdle registers a hook called when nothing is pending while
// processes are still blocked. If the hook returns true the kernel
// continues (the hook is expected to have scheduled new events); otherwise
// Run returns. This is used by tests to detect deadlock.
func (k *Kernel) OnIdle(fn func() bool) { k.idleFn = fn }

// Run executes events until nothing is pending or Stop is called.
// It returns the final virtual time.
func (k *Kernel) Run() Time {
	k.limit = -1
	return k.loop()
}

// RunUntil executes events with timestamps <= t, then returns. The clock
// is left at min(t, time of last event) or advanced to t if events remain
// beyond it.
func (k *Kernel) RunUntil(t Time) Time {
	k.limit = t
	defer func() { k.limit = -1 }()
	k.loop()
	if !k.stopped && k.now < t {
		k.now = t
	}
	return k.now
}

// Stop makes Run return after the current event completes. A process
// may call it from inside the simulation (e.g. an epoch-boundary
// predicate): the caller keeps running until it next blocks, at which
// point the run returns with every process's state preserved. The run
// can be continued with ClearStop + Run/RunUntil.
func (k *Kernel) Stop() { k.stopped = true }

// Stopped reports whether Stop has been called.
func (k *Kernel) Stopped() bool { return k.stopped }

// ClearStop re-arms a kernel halted by Stop so Run/RunUntil continue
// exactly where they left off — the basis of bounded, caller-paced
// session runs. It must not be called after Shutdown (the processes
// are gone). A kernel halted by the stall watchdog is not re-armed: the
// livelock would only trip it again.
func (k *Kernel) ClearStop() { k.stopped = k.stalled }

// SetStallLimit arms the bounded-progress watchdog: if more than n
// dispatches (process resumes, wait timeouts, event callbacks) occur
// without virtual time advancing, the kernel declares itself stalled
// and stops. n must comfortably exceed the largest legitimate
// same-instant cascade (every node's boundary processing plus message
// deliveries happen at one instant). Zero disables the watchdog.
func (k *Kernel) SetStallLimit(n int) { k.stallLimit = n }

// Stalled reports whether the watchdog tripped, and if so the name of
// the last process dispatched at the pinned instant ("(event)" when an
// event callback, not a process, was spinning) and that instant. The
// condition is sticky: a stalled kernel will not run again.
func (k *Kernel) Stalled() (proc string, at Time, ok bool) {
	return k.stallName, k.stallAt, k.stalled
}

// tick records one dispatch for the stall watchdog. It runs with the
// clock already advanced to the dispatch time, so any real progress
// resets the count. On trip it stops the kernel; the current dispatch
// still completes (the next scheduling decision observes stopped).
func (k *Kernel) tick(name string) {
	if k.now != k.stallAt {
		k.stallAt, k.stallCount = k.now, 0
	}
	k.stallCount++
	k.stallName = name
	if k.stallCount > k.stallLimit {
		k.stalled = true
		k.stopped = true
	}
}

// next advances the simulation without transferring control: it runs due
// callback events — and the due steps of processes parked in RunSteps —
// inline and returns the next process to run (with the clock advanced to
// its wake time), or nil when an end condition holds — nothing pending
// (after the idle hook declined), Stop called, or the RunUntil bound
// reached.
//
// next may execute on the kernel goroutine or inside a blocking process
// (see block): whoever is running schedules. Exactly one of them runs at
// any instant, so kernel state needs no locking.
func (k *Kernel) next() *Proc {
	for {
		if k.stopped {
			return nil
		}
		var e *event
		if len(k.events) > 0 {
			e = k.events[0]
		}
		// The next wake competes with the heap head under the one
		// (time, seq) order.
		if n := len(k.wakes); n > 0 {
			if p := k.wakes[n-1]; e == nil || !e.before(p.wakeAt, p.wakeSeq) {
				if k.limit >= 0 && p.wakeAt > k.limit {
					return nil
				}
				k.wakes = k.wakes[:n-1]
				if p.wakeAt > k.now {
					k.now = p.wakeAt
				}
				if s := p.expiring; s != nil {
					p.expiring, p.timedOut = nil, true
					s.waiters = without(s.waiters, p)
				}
				if k.stallLimit > 0 {
					k.tick(p.name)
				}
				if p.steps != nil && !debugNoInline && k.stepInline(p) {
					continue
				}
				k.loud++ // into a process: it may do anything
				return p
			}
		}
		if e == nil {
			if k.idleFn != nil && k.idleFn() {
				continue
			}
			return nil
		}
		if k.limit >= 0 && e.at > k.limit {
			return nil
		}
		k.remove(0)
		if e.at > k.now {
			k.now = e.at
		}
		fn, fnArg, arg := e.fn, e.fnArg, e.arg
		k.recycle(e)
		if k.stallLimit > 0 {
			k.tick("(event)")
		}
		k.loud++ // a callback may do anything
		if fnArg != nil {
			fnArg(arg)
		} else {
			fn()
		}
	}
}

// loop drives the simulation from the kernel goroutine: it switches
// into the next process and, when that process parks, into the
// successor the process chose (block), until an end condition is
// reached. A process panic surfaces here, out of resume; so does a panic
// raised by an inline step, out of resume or straight out of next,
// depending on whose stack was scheduling. Either way it leaves the
// kernel stopped.
func (k *Kernel) loop() Time {
	defer func() {
		if k.inline {
			k.inline, k.stopped = false, true
		}
	}()
	k.loud++ // whoever called Run may have done anything since the last one
	for p := k.next(); p != nil; {
		k.succ = nil
		k.switches++
		p.switches++
		if p.resume(); p.done {
			p = k.next()
		} else {
			p = k.succ
		}
	}
	return k.now
}

// Shutdown terminates all spawned processes that are still blocked in
// kernel primitives or were never started. It must be called after Run
// returns when the kernel will no longer be used; it unwinds the process
// coroutines so they do not leak. Safe to call multiple times.
func (k *Kernel) Shutdown() {
	k.stopped = true
	for _, p := range k.procs {
		p.stop() // a parked process unwinds (block), an unstarted one never runs
		p.retire()
	}
	k.procs, k.wakes = nil, nil
}

// LiveProcs returns the number of spawned processes that have not finished.
func (k *Kernel) LiveProcs() int { return k.nprocs }

// Switches reports how many times the kernel has switched into a process
// — a first run, or a resume from a blocking primitive or from RunSteps —
// in total and, when name is not empty, into the processes spawned under
// that name (until Shutdown). A wake dispatched inline, a sleep taken in
// place and a block whose process is next anyway cost no switch.
func (k *Kernel) Switches(name string) (total, named uint64) {
	for _, p := range k.procs {
		if name != "" && p.name == name {
			named += p.switches
		}
	}
	return k.switches, named
}

// killed is the panic value that unwinds a parked process on Shutdown.
type killed struct{}

// Proc is a simulated process: a coroutine that may block in virtual time.
// All methods must be called from inside the process — on its own stack,
// never from a step the kernel is running inline (RunSteps), where the
// blocking ones panic; the accessors that never block (Name, Kernel,
// Now, TimedOut) are the exception.
type Proc struct {
	k      *Kernel
	name   string
	done   bool
	resume func() (struct{}, bool) // kernel side: switch into the process
	yield  func(struct{}) bool     // process side: park; false means unwind
	stop   func()                  // kernel side: make a parked yield return false
	// The pending wake, an entry of k.wakes (a blocked process has at
	// most one). While expiring is set the wake is the timeout of a wait
	// on that signal, not a plain resume; timedOut is how the last wait
	// ended.
	wakeAt   Time
	wakeSeq  uint64
	expiring *Signal
	timedOut bool
	// steps is the body of the RunSteps call the process is parked in, set
	// while its pending wake is one of that call's sleeps or waits: next
	// runs such a wake's steps inline. Cleared by the kernel when the body
	// finishes.
	steps StepFunc
	// switches counts the kernel's switches into the process (Switches).
	switches uint64
	// The promise (PromiseQuiet), standing while quietGen == k.loud: until
	// quietUntil the process's dispatches are quiet and fall on the
	// instants quietAt + i(quietA+quietB) + {0, quietA}.
	quietGen                            uint64
	quietUntil, quietAt, quietA, quietB Time
}

// Name returns the name the process was spawned with.
func (p *Proc) Name() string { return p.name }

// Kernel returns the kernel the process belongs to.
func (p *Proc) Kernel() *Kernel { return p.k }

// Now returns the current virtual time.
func (p *Proc) Now() Time { return p.k.now }

// TimedOut reports whether the process's last wait — a WaitTimeout, or a
// StepWait of its RunSteps body — ended by its timeout rather than by a
// Broadcast. Like Name, Kernel and Now it never blocks, so a step may
// call it on a process it holds even while the kernel runs it inline.
func (p *Proc) TimedOut() bool { return p.timedOut }

// Spawn starts fn as a simulated process. The process begins running at
// the current virtual time (ordered after already-scheduled events at that
// time). Spawn may be called before Run or from inside processes/events.
func (k *Kernel) Spawn(name string, fn func(p *Proc)) *Proc {
	p := &Proc{k: k, name: name}
	p.resume, p.stop = iter.Pull(func(yield func(struct{}) bool) {
		p.yield = yield
		defer func() {
			p.retire()
			// Shutdown's unwinding ends here. Any other panic stops the
			// run and travels on: iter.Pull re-raises it out of resume,
			// on the goroutine that called Run, where callers can recover.
			if r := recover(); r != nil && r != (killed{}) {
				k.stopped = true
				panic(r)
			}
		}()
		fn(p)
	})
	k.procs = append(k.procs, p)
	k.nprocs++
	k.enqueue(p, k.now)
	return p
}

// retire marks p finished.
func (p *Proc) retire() {
	if !p.done {
		p.done = true
		p.k.nprocs--
	}
}

// block suspends the calling process, whose wake is already pending or
// will come from a Broadcast. It makes the scheduling decision itself:
// if its own wake is the next occurrence it simply continues — no switch
// at all — otherwise it leaves the successor (or nil on an end condition)
// for loop to switch into and parks until loop switches back.
func (p *Proc) block() {
	k := p.k
	if k.inline {
		// A step running inline borrowed some other stack: parking here
		// would park that stack's owner, not p.
		panic("sim: blocking call from an inline step")
	}
	if q := k.next(); q != p {
		k.succ = q
		if !p.yield(struct{}{}) {
			panic(killed{})
		}
	}
}

// debugNoFastPath, when set (tests; spec.go), disables sleep's in-place fast
// path so every sleep enqueues a wake and blocks — the reference
// discipline the fast path must be indistinguishable from.
// debugNoInline, likewise, makes every wake of a process parked in
// RunSteps a real switch into it: the reference for inline steps.
var debugNoFastPath, debugNoInline bool

// sleep is the one implementation of "p sleeps d", shared by Sleep
// (RunSteps sleeps through it) and the inline step loop. A negative d is
// a yield, like zero.
//
// Fast path: nothing is due at or before the wake (an occurrence AT the
// wake time was scheduled earlier and must fire first) and no stop or
// RunUntil bound intervenes, so p is what next() would dispatch. Advance
// the clock in place — no queue operation, no switch, and no seq consumed
// (seq is only ever compared) — and report true. A sleep called from a
// step that is running inline never qualifies: it must reach block's
// guard.
//
// Otherwise the wake is enqueued and sleep reports false: at once when
// the kernel is running p's steps inline (park unset), for next to
// dispatch the wake in its turn; with park set the caller is p itself,
// which first blocks until that wake is dispatched.
func (k *Kernel) sleep(p *Proc, d Time, park bool) bool {
	at := k.now + max(d, 0)
	if n := len(k.wakes); !k.stopped && !k.inline && !debugNoFastPath &&
		(n == 0 || k.wakes[n-1].wakeAt > at) &&
		(len(k.events) == 0 || k.events[0].at > at) &&
		(k.limit < 0 || at <= k.limit) {
		k.now = at
		// The watchdog must observe this path too: a lone process
		// yielding in place (d=0, nothing pending) never reaches next(),
		// so it would otherwise spin forever below the watchdog's radar.
		// Once the trip sets stopped, the next sleep enqueues and the
		// scheduler loop exits.
		if k.stallLimit > 0 {
			k.tick(p.name)
		}
		return true
	}
	k.enqueue(p, at)
	if park {
		p.block()
	}
	return false
}

// Sleep suspends the process for d virtual nanoseconds.
func (p *Proc) Sleep(d Time) { p.k.sleep(p, d, true) }

// Yield gives other same-time events and processes a chance to run.
func (p *Proc) Yield() { p.Sleep(0) }

// StepStatus is a step's answer to "what next" (see StepFunc).
type StepStatus uint8

const (
	// StepMore: sleep the returned duration, then call the step again.
	StepMore StepStatus = iota
	// StepDone: the body is finished; RunSteps returns (no sleep).
	StepDone
	// StepBlock: the step was called without its process and stopped
	// short of something that might block; call it again, with the
	// process, on the process's own stack.
	StepBlock
	// StepQuiet: StepMore from a step that kept its process's promise
	// (PromiseQuiet): it touched nothing but the process's own state and
	// ran at an instant the promise names. The only answer that leaves
	// standing promises standing.
	StepQuiet
	// StepWait: wait on the signal the step named with Signal.Await (or
	// Queue.Await) — the returned duration is the timeout, Forever for
	// none — then call the step again, which reads how the wait ended
	// from its process's TimedOut.
	StepWait
)

// StepFunc is one resumable piece of a RunSteps body. Each call does the
// work up to the body's next sleep or wait and returns that sleep's
// duration with StepMore (zero is a yield and is still slept), or the
// wait's timeout with StepWait (return s.Await(d)), or StepDone when the
// body is over. A piece that charges nothing runs on into the next
// instead of returning.
//
// The step is called with its process when it runs on the process's own
// stack, where it may block like any process code, and with nil when the
// kernel runs it inline from the scheduler on some other stack. There it
// must not block: not through p (it has none) and not through a process
// captured in a closure it calls. A step given nil therefore decides,
// before it starts anything that could block, whether it could, and if so
// returns StepBlock having done none of it; the kernel then switches into
// the process and repeats the call there, which picks up where this one
// stopped. The kernel enforces the rule: a blocking primitive reached
// from an inline step panics.
//
// A step is loud unless it says otherwise: whatever it answers but
// StepQuiet voids every standing promise, its own process's included
// (StepDone and StepBlock by the switch into the process that follows).
// StepQuiet is StepMore plus the claim that the step kept the promise its
// process made — see PromiseQuiet for what that binds it to. The kernel
// cannot check the claim; a step that makes it falsely makes other
// processes' runs ahead, and so the simulation, wrong.
type StepFunc func(p *Proc) (d Time, st StepStatus)

// RunSteps runs a body given as a step function. It is exactly
//
//	for {
//		d, st := step(p)
//		if st == StepDone {
//			return
//		}
//		if st == StepWait {
//			p.WaitTimeout(s, d) // s: the signal the step named
//		} else {
//			p.Sleep(d)
//		}
//	}
//
// — same dispatch order, same (time, seq) wake keys, same waiter order,
// same in-place fast path — except that while the process is parked in
// one of those sleeps or waits its wake is dispatched like a callback
// event: next calls the following steps inline, as step(nil), and
// switches into the process only once the body is done or a step
// answers StepBlock. Two processes whose sleeps interleave, or a process
// that answers each message of a queue it waits on, thus cost no switch
// per sleep or message.
func (p *Proc) RunSteps(step StepFunc) {
	k := p.k
	for {
		d, st := step(p)
		switch st {
		case StepDone:
			return
		case StepBlock:
			panic("sim: StepBlock from a step that was given its process")
		case StepMore, StepWait:
			k.loud++
		}
		p.steps = step // this sleep's or wait's wake may be dispatched inline
		if st == StepWait {
			k.park(p, d)
			p.block()
		} else {
			p.Sleep(d)
		}
		if p.steps == nil {
			return // the body finished inline
		}
		p.steps = nil
	}
}

// stepInline dispatches the wake of p, parked in RunSteps, without
// switching into it: it runs p's steps in place for as long as each
// sleep takes the fast path. It reports true when p is parked again
// behind a new wake or on a signal, false when the caller must switch
// into p — the body is done, or the next step might block.
func (k *Kernel) stepInline(p *Proc) bool {
	for {
		k.inline = true
		d, st := p.steps(nil)
		k.inline = false
		switch st {
		case StepDone:
			p.steps = nil
			return false
		case StepBlock:
			return false
		case StepWait:
			k.loud++
			k.park(p, d)
			return true
		case StepMore:
			k.loud++
		}
		if !k.sleep(p, d, false) {
			return true
		}
	}
}

// park registers p, whose step answered StepWait, as a waiter on the
// signal the step named, with timeout d: WaitTimeout's registration,
// without its block.
func (k *Kernel) park(p *Proc, d Time) {
	s := k.await
	if s == nil {
		panic("sim: StepWait from a step that named no signal (Signal.Await)")
	}
	k.await = nil
	s.enlist(p, d)
}

// PromiseQuiet is called by a step of p's RunSteps body, while it runs. It
// promises that, for as long as nothing loud is dispatched, every
// dispatch of p before the instant until touches only p's own state —
// no other process's, no event, no signal, nothing a callback or another
// process reads — and falls on p's lattice: the instants
// now + i(a+b) + {0, a}, i.e. p alternates sleeps of a and b starting
// now (or sleeps any whole number of those pairs at once). The step
// making the promise, and every later one that keeps it, answers
// StepQuiet; the promise ends at until, at the first loud occurrence
// anywhere, or when p replaces it. Replacing it with one on a different
// lattice is itself loud.
//
// It returns NextLoud and whether p's lattice is clear of every other
// standing promise's: with equal (a, b) two lattices share an instant
// when their anchors differ by 0, a or b modulo a+b; with different
// (a, b) they are taken to. p may retire its dispatches ahead, and sleep
// over them in one sleep, up to a lattice instant strictly before loud,
// and only if clear: then no (time, seq) comparison involving the one
// wake is ever decided by seq — everything loud lies after it, and no
// quiet dispatch shares its instant — so dispatch order is that of the
// run in which p slept every sleep. A promise with a+b <= 0 is not
// recorded and reports not clear.
func (p *Proc) PromiseQuiet(until, a, b Time) (loud Time, clear bool) {
	k := p.k
	period := a + b
	if a < 0 || b < 0 || period <= 0 {
		return k.NextLoud(), false
	}
	if p.quietGen == k.loud && (p.quietA != a || p.quietB != b || (k.now-p.quietAt)%period != 0) {
		k.loud++ // others may have run ahead against the old lattice
	}
	p.quietGen, p.quietUntil, p.quietAt, p.quietA, p.quietB = k.loud, until, k.now, a, b
	loud = k.NextLoud()
	// Only a process dispatched before loud can meet p on the way there,
	// and NextLoud has just shown that each of those stands promised.
	for i := len(k.wakes) - 1; i >= 0 && k.wakes[i].wakeAt < loud; i-- {
		q := k.wakes[i]
		if q.quietA != a || q.quietB != b {
			return loud, false
		}
		if d := (k.now - q.quietAt) % period; d == 0 || d == a || d == b {
			return loud, false
		}
	}
	return loud, true
}

// Signal is a broadcast condition in virtual time. Waiters are woken by
// Broadcast in deterministic (wait-arrival) order.
type Signal struct {
	k       *Kernel
	name    string
	waiters []*Proc
}

// NewSignal creates a Signal on kernel k.
func (k *Kernel) NewSignal(name string) *Signal {
	return &Signal{k: k, name: name}
}

// Broadcast wakes every process currently waiting on s. Each waiter's
// pending timeout, if any, is withdrawn and its resume enqueued at the
// current time, in the order they began waiting (the wait list is kept
// in arrival order).
func (s *Signal) Broadcast() {
	k := s.k
	ws := s.waiters
	s.waiters = s.waiters[:0]
	for _, p := range ws {
		if p.expiring != nil {
			p.expiring = nil
			k.wakes = without(k.wakes, p)
		}
		k.enqueue(p, k.now)
	}
}

// Waiters reports how many processes are blocked on s.
func (s *Signal) Waiters() int { return len(s.waiters) }

// Wait blocks the process until the next Broadcast on s.
func (p *Proc) Wait(s *Signal) { p.WaitTimeout(s, Forever) }

// WaitTimeout blocks until Broadcast or until d elapses. It returns true
// if woken by Broadcast, false on timeout.
func (p *Proc) WaitTimeout(s *Signal, d Time) bool {
	s.enlist(p, d)
	p.block()
	return !p.timedOut
}

// enlist appends p to s's waiters and, unless d is Forever, enqueues its
// timeout d from now: the one registration of a wait, blocking or not.
func (s *Signal) enlist(p *Proc, d Time) {
	p.timedOut = false
	s.waiters = append(s.waiters, p)
	if d != Forever {
		p.expiring = s
		s.k.enqueue(p, s.k.now+max(d, 0))
	}
}

// Await ends a step of a RunSteps body with a wait on s: a step returns
// s.Await(d) where a plain loop would call WaitTimeout(s, d). The kernel
// registers the wait as WaitTimeout would; the step is called again once
// it ends, and its process's TimedOut tells how.
func (s *Signal) Await(d Time) (Time, StepStatus) {
	s.k.await = s
	return d, StepWait
}

// Ring is an unbounded FIFO ring buffer. A long-lived ring neither
// re-allocates per element in steady state nor pins consumed elements
// (a popped slot is zeroed). The zero value is ready to use.
type Ring[T any] struct {
	items   []T // backing storage; len(items) is the capacity
	head, n int
}

// Len reports the number of buffered elements.
func (r *Ring[T]) Len() int { return r.n }

// Push appends v.
func (r *Ring[T]) Push(v T) {
	if r.n == len(r.items) {
		r.grow()
	}
	i := r.head + r.n
	if i >= len(r.items) {
		i -= len(r.items)
	}
	r.items[i] = v
	r.n++
}

// grow doubles the capacity, unwrapping the live elements.
func (r *Ring[T]) grow() {
	ncap := 2 * len(r.items)
	if ncap == 0 {
		ncap = 8
	}
	buf := make([]T, ncap)
	for i := 0; i < r.n; i++ {
		j := r.head + i
		if j >= len(r.items) {
			j -= len(r.items)
		}
		buf[i] = r.items[j]
	}
	r.items, r.head = buf, 0
}

// At returns the i-th oldest buffered element (0 = head) without
// removing it. Panics if i is out of range.
func (r *Ring[T]) At(i int) T {
	if i < 0 || i >= r.n {
		panic(fmt.Sprintf("sim: Ring.At(%d) with %d elements", i, r.n))
	}
	j := r.head + i
	if j >= len(r.items) {
		j -= len(r.items)
	}
	return r.items[j]
}

// Pop removes and returns the oldest element.
func (r *Ring[T]) Pop() (T, bool) {
	var zero T
	if r.n == 0 {
		return zero, false
	}
	v := r.items[r.head]
	r.items[r.head] = zero // release the consumed element
	r.head++
	if r.head == len(r.items) {
		r.head = 0
	}
	r.n--
	return v, true
}

// Queue is an unbounded FIFO of values delivered in virtual time. Any
// goroutine in kernel context may Put; processes Recv (blocking in virtual
// time). It is the basic mailbox for simulated message passing. Storage
// is a Ring, so a long-lived queue neither re-allocates per message nor
// pins consumed items.
type Queue[T any] struct {
	k     *Kernel
	name  string
	ring  Ring[T]
	avail *Signal
}

// NewQueue creates a queue on kernel k.
func NewQueue[T any](k *Kernel, name string) *Queue[T] {
	return &Queue[T]{k: k, name: name, avail: k.NewSignal(name + ".avail")}
}

// Len reports the number of queued items.
func (q *Queue[T]) Len() int { return q.ring.Len() }

// Put appends v and wakes any receivers.
func (q *Queue[T]) Put(v T) {
	q.ring.Push(v)
	q.avail.Broadcast()
}

// Await ends a step of a RunSteps body with a wait for the queue's next
// Put (Signal.Await on its arrival signal): what RecvTimeout blocks on
// when the queue is empty.
func (q *Queue[T]) Await(d Time) (Time, StepStatus) { return q.avail.Await(d) }

// TryRecv removes and returns the head item without blocking.
func (q *Queue[T]) TryRecv() (T, bool) {
	return q.ring.Pop()
}

// Recv blocks the process until an item is available, then returns it.
func (q *Queue[T]) Recv(p *Proc) T {
	v, _ := q.RecvTimeout(p, Forever)
	return v
}

// RecvTimeout is Recv with a timeout; ok=false means the timeout elapsed.
func (q *Queue[T]) RecvTimeout(p *Proc, d Time) (T, bool) {
	var zero T
	deadline := Time(0)
	if d != Forever {
		deadline = q.k.now + d
	}
	for {
		if v, ok := q.TryRecv(); ok {
			return v, true
		}
		if d == Forever {
			p.Wait(q.avail)
			continue
		}
		remain := deadline - q.k.now
		if remain <= 0 {
			return zero, false
		}
		if !p.WaitTimeout(q.avail, remain) {
			return zero, false
		}
	}
}

// Drain removes and returns all queued items (a fresh slice; the queue's
// internal storage is never handed out).
func (q *Queue[T]) Drain() []T {
	if q.ring.Len() == 0 {
		return nil
	}
	out := make([]T, 0, q.ring.Len())
	for {
		v, ok := q.TryRecv()
		if !ok {
			return out
		}
		out = append(out, v)
	}
}
