// Package sim provides a deterministic, process-oriented discrete-event
// simulation kernel. All components of the fault-tolerance reproduction
// (processors, hypervisors, disks, network links) advance a shared virtual
// clock through this kernel, so entire multi-machine experiments are
// reproducible bit-for-bit from a seed.
//
// The kernel is cooperative: at any instant exactly one process step (or
// one event callback) runs, so no locking is needed inside simulated
// components and execution order is a deterministic function of (event
// time, schedule order).
//
// A process is a step machine (StepFunc, started with Kernel.Start): each
// call of its step does the work up to the process's next sleep or wait
// and returns it — a duration to sleep, a signal to wait on (Signal.Await)
// or the end of the process. The kernel dispatches every wake by calling
// the step again, always with its process, on the scheduler's own stack:
// there is one process model and one dispatch path, and no stack to
// switch to. Spawn adapts a body written as straight-line blocking code
// (Proc.Sleep, Proc.WaitTimeout) to that model by running it as a
// coroutine inside a step; Switches counts the adapter's resumes.
//
// Two structures hold what is pending, ordered by one (time, seq) key: a
// binary heap of callback events, and a short sorted list of process
// wakes (a sleeping or waiting process has at most one: its sleep, start,
// broadcast resume or wait timeout). The hot path allocates nothing
// (popped events are pooled on a free list; a wake is a few fields of its
// Proc); a process that sleeps when nothing else is due first simply
// advances the clock in place and its step is called again at once.
//
// A process may also know its own future: a replica whose guest spins on
// a device register repeats one pair of sleeps, touching nothing but its
// own state, until something reaches it from outside. It says so with a
// promise (Proc.PromiseQuiet: until U my dispatches touch only my own
// state and fall on the instants now + i(a+b) + {0, a}), and in return the
// kernel answers the one question that makes the future safe to take
// early — when can something loud next be dispatched (NextLoud). A
// process that sleeps to a point strictly before that instant has slept
// past nothing that could have seen, or changed, what it did on the way.
// Loud is the default: every event callback and every entry to the
// scheduling loop voids all promises (one generation counter), and so
// does a step that does not say, with StepQuiet, that it kept its own.
package sim

import (
	"fmt"
	"hash/fnv"
	"iter"
	"math/rand"
	"slices"

	"repro/internal/free"
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

// Kernel is the simulation scheduler. Create one with NewKernel, start
// processes with Start (or Spawn), then call Run (or RunUntil). A Kernel
// must be driven by one goroutine at a time: every step and every
// callback runs on the stack of the goroutine that called Run, and none
// may block.
type Kernel struct {
	now     Time
	seq     uint64
	events  []*event // pending callbacks: a binary min-heap on (at, seq)
	free    []*event // recycled events
	arena   *Arena   // lent free and the heap's storage until Shutdown
	wakes   []*Proc  // pending process wakes, latest first: the tail is next
	seed    int64
	procs   []*Proc
	stopped bool
	limit   Time        // RunUntil bound, or <0 for none
	nprocs  int         // live (not yet finished) processes
	idleFn  func() bool // optional hook when nothing is pending
	// await is the signal a step named with Signal.Await, until the kernel
	// parks the step's process on it (StepWait).
	await *Signal
	// switches counts the Spawn adapter's resumes of its coroutines.
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

// NewKernel returns a kernel whose random streams derive from seed, over
// a private arena: its events are allocated plainly.
func NewKernel(seed int64) *Kernel { return NewKernelIn(new(Arena), seed) }

// Arena owns the event records, the event heap's storage and the
// processes of the kernels built over it (NewKernelIn), one kernel at a
// time: the kernel schedules from the arena's free events and starts its
// processes in the arena's Procs, and Shutdown hands every event back —
// fired, canceled or still queued, each with its generation bumped, so no
// Handle of the old kernel can cancel it — and every Proc, zeroed, for
// the next kernel the arena serves. It has one owner at a time and no
// lock.
type Arena struct {
	free []*event
	heap []*event
	// procs is the process list's storage, empty: the Procs past its
	// length are the released ones, which Start takes in order.
	procs []*Proc
}

// NewKernelIn is NewKernel over an arena, which the kernel holds until
// Shutdown.
func NewKernelIn(a *Arena, seed int64) *Kernel {
	k := &Kernel{seed: seed, limit: -1, loud: 1, arena: a, free: a.free, events: a.heap, procs: a.procs}
	for _, e := range k.free {
		e.k = k
	}
	a.free, a.heap, a.procs = nil, nil, nil
	return k
}

// Now returns the current virtual time.
func (k *Kernel) Now() Time { return k.now }

// Seed returns the seed the kernel was created with.
func (k *Kernel) Seed() int64 { return k.seed }

// NewRand returns a deterministic random stream derived from the kernel
// seed and the given name. Distinct names give independent streams, so
// adding a new consumer does not perturb existing ones.
func (k *Kernel) NewRand(name string) *rand.Rand {
	return rand.New(rand.NewSource(k.RandSeed(name)))
}

// RandSeed is the seed of NewRand(name)'s stream: a recycled *rand.Rand
// reseeded with it (Rand.Seed) replays that stream from its start.
func (k *Kernel) RandSeed(name string) int64 {
	h := fnv.New64a()
	fmt.Fprintf(h, "%d/%s", k.seed, name)
	return int64(h.Sum64())
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
// in kernel context and must not block; use a process to wait in virtual
// time.
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
// predicate): the caller's step keeps running until it returns, at which
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

// loop drives the simulation: it dispatches due callback events and
// process wakes in (time, seq) order until an end condition holds —
// nothing pending (after the idle hook declined), Stop called, or the
// RunUntil bound reached. A panic raised by a step or a callback
// surfaces here, on the goroutine that called Run, and leaves the kernel
// stopped.
func (k *Kernel) loop() Time {
	ok := false
	defer func() {
		if !ok {
			k.stopped = true
		}
	}()
	k.loud++ // whoever called Run may have done anything since the last one
	for !k.stopped {
		var e *event
		if len(k.events) > 0 {
			e = k.events[0]
		}
		// The next wake competes with the heap head under the one
		// (time, seq) order.
		if n := len(k.wakes); n > 0 {
			if p := k.wakes[n-1]; e == nil || !e.before(p.wakeAt, p.wakeSeq) {
				if k.limit >= 0 && p.wakeAt > k.limit {
					break
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
				k.dispatch(p)
				continue
			}
		}
		if e == nil {
			if k.idleFn != nil && k.idleFn() {
				continue
			}
			break
		}
		if k.limit >= 0 && e.at > k.limit {
			break
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
	ok = true
	return k.now
}

// dispatch is the one way a process runs: call its step for the wake just
// popped, and again for as long as each sleep it answers is taken in
// place. It returns with p behind a new wake, parked on a signal, or
// finished.
func (k *Kernel) dispatch(p *Proc) {
	for {
		d, st := p.step(p)
		if st != StepQuiet {
			k.loud++ // the step may have done anything
		}
		switch st {
		case StepDone:
			p.retire()
			return
		case StepWait:
			s := k.await
			if s == nil {
				panic("sim: StepWait from a step that named no signal (Signal.Await)")
			}
			k.await = nil
			s.enlist(p, d)
			return
		}
		if !k.inPlace(p, d) {
			k.enqueue(p, k.now+max(d, 0))
			return
		}
	}
}

// Shutdown finishes every process that has not finished yet and hands
// the kernel's events, queued ones included, back to its arena. It must
// be called after Run returns when the kernel will no longer be used; it
// unwinds the coroutines of Spawn's processes so they do not leak. Safe
// to call multiple times.
func (k *Kernel) Shutdown() {
	k.stopped = true
	for _, p := range k.procs {
		if p.stop != nil {
			p.stop() // a parked coroutine unwinds (block), an unstarted one never runs
		}
		p.retire()
		*p = Proc{} // for the arena's next kernel
	}
	procs := k.procs[:0]
	k.procs, k.wakes = nil, nil
	if a := k.arena; a != nil {
		for i, e := range k.events {
			e.index = -1
			k.recycle(e)
			k.events[i] = nil
		}
		a.free, a.heap, a.procs = k.free, k.events[:0], procs
		k.free, k.events, k.arena = nil, nil, nil
	}
}

// LiveProcs returns the number of started processes that have not finished.
func (k *Kernel) LiveProcs() int { return k.nprocs }

// Switches reports how many times the Spawn adapter has switched into a
// coroutine: a first run, or a resume from Sleep or WaitTimeout that the
// kernel did not take in place. A process started with Start costs none.
func (k *Kernel) Switches() uint64 { return k.switches }

// killed is the panic value that unwinds a parked coroutine on Shutdown.
type killed struct{}

// Proc is a simulated process: a step machine (StepFunc) the kernel calls
// at each of its wakes.
type Proc struct {
	k    *Kernel
	name string
	step StepFunc
	done bool
	// The pending wake, an entry of k.wakes (a sleeping or waiting process
	// has at most one). While expiring is set the wake is the timeout of a
	// wait on that signal, not a plain resume; timedOut is how the last
	// wait ended.
	wakeAt   Time
	wakeSeq  uint64
	expiring *Signal
	timedOut bool
	// The coroutine of a process Spawn started (nil for one started with
	// Start): yield parks it, resume runs it to its next blocking call,
	// which leaves the answer its step gives in parkD and parkSt, and stop
	// unwinds it.
	yield  func(struct{}) bool
	resume func() (struct{}, bool)
	stop   func()
	parkD  Time
	parkSt StepStatus
	// The promise (PromiseQuiet), standing while quietGen == k.loud: until
	// quietUntil the process's dispatches are quiet and fall on the
	// instants quietAt + i(quietA+quietB) + {0, quietA}.
	quietGen                            uint64
	quietUntil, quietAt, quietA, quietB Time
}

// Name returns the name the process was started with.
func (p *Proc) Name() string { return p.name }

// Kernel returns the kernel the process belongs to.
func (p *Proc) Kernel() *Kernel { return p.k }

// Now returns the current virtual time.
func (p *Proc) Now() Time { return p.k.now }

// TimedOut reports whether the process's last wait — a StepWait, or a
// WaitTimeout of a Spawn body — ended by its timeout rather than by a
// Broadcast.
func (p *Proc) TimedOut() bool { return p.timedOut }

// StepStatus is a step's answer to "what next" (see StepFunc).
type StepStatus uint8

const (
	// StepMore: sleep the returned duration, then call the step again.
	StepMore StepStatus = iota
	// StepDone: the process is finished (no sleep).
	StepDone
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

// StepFunc is a process. Each call does the work up to the process's next
// sleep or wait and returns that sleep's duration with StepMore (zero is a
// yield and is still slept), or the wait's timeout with StepWait (return
// s.Await(d)), or StepDone when the process is over. A piece that charges
// nothing runs on into the next instead of returning. The kernel calls
// the step with its own process, on the scheduler's stack, for the start
// and for every wake; the step keeps whatever it needs to resume from one
// call to the next (its phase) itself, and must not block.
//
// A step is loud unless it says otherwise: whatever it answers but
// StepQuiet voids every standing promise, its own process's included.
// StepQuiet is StepMore plus the claim that the step kept the promise its
// process made — see PromiseQuiet for what that binds it to. The kernel
// cannot check the claim; a step that makes it falsely makes other
// processes' runs ahead, and so the simulation, wrong.
type StepFunc func(p *Proc) (d Time, st StepStatus)

// Start starts step as a simulated process. Its first call comes at the
// current virtual time (ordered after already-scheduled events at that
// time). Start may be called before Run or from inside steps and events.
func (k *Kernel) Start(name string, step StepFunc) *Proc {
	var p *Proc
	k.procs, p = free.Next(k.procs) // a Proc the arena recycled, or a new one
	*p = Proc{k: k, name: name, step: step}
	k.nprocs++
	k.enqueue(p, k.now)
	return p
}

// Spawn starts body as a simulated process written as blocking code: an
// adapter that runs body as a coroutine inside a step. Proc.Sleep and
// Proc.WaitTimeout park the coroutine with the answer a step would have
// given at that point, and the kernel's next call of the step resumes
// it, so a Spawn body and the step machine it spells out dispatch alike,
// key for key.
func (k *Kernel) Spawn(name string, body func(p *Proc)) *Proc {
	p := k.Start(name, (*Proc).resumeStep)
	p.resume, p.stop = iter.Pull(func(yield func(struct{}) bool) {
		p.yield = yield
		defer func() {
			p.retire()
			// Shutdown's unwinding ends here. Any other panic travels on:
			// iter.Pull re-raises it out of resume, in the step.
			if r := recover(); r != nil && r != (killed{}) {
				panic(r)
			}
		}()
		body(p)
	})
	return p
}

// resumeStep is the step of a process Spawn started: run the coroutine
// to its next blocking call, and answer what it parked with.
func (p *Proc) resumeStep() (Time, StepStatus) {
	p.k.switches++
	if _, ok := p.resume(); ok {
		return p.parkD, p.parkSt
	}
	return 0, StepDone
}

// retire marks p finished.
func (p *Proc) retire() {
	if !p.done {
		p.done = true
		p.k.nprocs--
	}
}

// debugNoFastPath, when set (tests; spec.go), disables the in-place sleep
// so every sleep enqueues a wake — the reference discipline the fast path
// must be indistinguishable from.
var debugNoFastPath bool

// inPlace is the sleep fast path: p sleeps d (a negative d is a yield,
// like zero) and nothing is due at or before the wake (an occurrence AT
// the wake time was scheduled earlier and must fire first), and no stop
// or RunUntil bound intervenes, so p is what the loop would dispatch
// next. It
// advances the clock in place — no queue operation and no seq consumed
// (seq is only ever compared) — and reports true; otherwise it changes
// nothing and the caller enqueues the wake.
func (k *Kernel) inPlace(p *Proc, d Time) bool {
	at := k.now + max(d, 0)
	if n := len(k.wakes); k.stopped || debugNoFastPath ||
		(n > 0 && k.wakes[n-1].wakeAt <= at) ||
		(len(k.events) > 0 && k.events[0].at <= at) ||
		(k.limit >= 0 && at > k.limit) {
		return false
	}
	k.now = at
	// The watchdog must observe this path too: a lone process yielding in
	// place (d=0, nothing pending) never reaches the loop, so it would
	// otherwise spin forever below the watchdog's radar. Once the trip sets
	// stopped, the next sleep enqueues and the scheduler loop exits.
	if k.stallLimit > 0 {
		k.tick(p.name)
	}
	return true
}

// block is the Spawn adapter's one blocking primitive: it parks the
// calling coroutine with the answer (d, st) its step gives the kernel,
// until the kernel calls the step again. A sleep the kernel would take in
// place is taken in place, without leaving the coroutine.
func (p *Proc) block(d Time, st StepStatus) {
	if k := p.k; st == StepMore && k.inPlace(p, d) {
		k.loud++
		return
	}
	p.parkD, p.parkSt = d, st
	if !p.yield(struct{}{}) {
		panic(killed{})
	}
}

// Sleep suspends a Spawn body for d virtual nanoseconds: a step's StepMore.
func (p *Proc) Sleep(d Time) { p.block(d, StepMore) }

// WaitTimeout suspends a Spawn body until Broadcast on s or until d
// elapses (Forever: no timeout), a step's StepWait. It returns true if
// woken by Broadcast, false on timeout.
func (p *Proc) WaitTimeout(s *Signal, d Time) bool {
	p.block(s.Await(d))
	return !p.timedOut
}

// PromiseQuiet is called by p's step, while it runs. It promises that,
// for as long as nothing loud is dispatched, every dispatch of p before
// the instant until touches only p's own state — no other process's, no
// event, no signal, nothing a callback or another process reads — and
// falls on p's lattice: the instants now + i(a+b) + {0, a}, i.e. p
// alternates sleeps of a and b starting now (or sleeps any whole number
// of those pairs at once). The step making the promise, and every later
// one that keeps it, answers StepQuiet; the promise ends at until, at the
// first loud occurrence anywhere, or when p replaces it. Replacing it
// with one on a different lattice is itself loud.
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

// Waiters reports how many processes are waiting on s.
func (s *Signal) Waiters() int { return len(s.waiters) }

// enlist appends p, whose step answered StepWait, to s's waiters and,
// unless d is Forever, enqueues its timeout d from now.
func (s *Signal) enlist(p *Proc, d Time) {
	p.timedOut = false
	s.waiters = append(s.waiters, p)
	if d != Forever {
		p.expiring = s
		s.k.enqueue(p, s.k.now+max(d, 0))
	}
}

// Await ends a step with a wait on s, timeout d (Forever: none): a step
// returns s.Await(d). The kernel registers the wait; the step is called
// again once it ends, and its process's TimedOut tells how.
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

// Reuse makes buf the storage of an empty ring: len(buf) is its
// capacity, and its elements must be zero (as Release leaves them).
func (r *Ring[T]) Reuse(buf []T) {
	if r.n != 0 {
		panic("sim: Ring.Reuse on a ring that holds elements")
	}
	r.items, r.head = buf, 0
}

// Release empties the ring and returns its storage, cleared, for a later
// Reuse. The ring is the zero value afterwards.
func (r *Ring[T]) Release() []T {
	buf := r.items
	clear(buf)
	*r = Ring[T]{}
	return buf
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
// step or callback may Put; a consumer takes items with TryRecv and ends
// a step with Await to wait for the next. It is the basic mailbox for
// simulated message passing. Storage is a Ring, so a long-lived queue
// neither re-allocates per message nor pins consumed items.
type Queue[T any] struct {
	ring  Ring[T]
	avail *Signal
}

// NewQueue creates a queue on kernel k.
func NewQueue[T any](k *Kernel, name string) *Queue[T] {
	return &Queue[T]{avail: k.NewSignal(name + ".avail")}
}

// Len reports the number of queued items.
func (q *Queue[T]) Len() int { return q.ring.Len() }

// Reset empties the queue, keeping its storage, drops its waiters and
// binds it to kernel k: a recycled queue is NewQueue's on k, under the
// name it was made with.
func (q *Queue[T]) Reset(k *Kernel) {
	q.ring.Reuse(q.ring.Release())
	s := q.avail
	clear(s.waiters)
	*s = Signal{k: k, name: s.name, waiters: s.waiters[:0]}
}

// Put appends v and wakes any receivers.
func (q *Queue[T]) Put(v T) {
	q.ring.Push(v)
	q.avail.Broadcast()
}

// Await ends a step with a wait for the queue's next Put (Signal.Await on
// its arrival signal), timeout d.
func (q *Queue[T]) Await(d Time) (Time, StepStatus) { return q.avail.Await(d) }

// TryRecv removes and returns the head item without blocking.
func (q *Queue[T]) TryRecv() (T, bool) {
	return q.ring.Pop()
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
