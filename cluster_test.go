package hft

import (
	"context"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/guest"
	"repro/internal/sim"
)

// TestClusterLiveFailover drives a session through a live primary
// failstop and asserts the backup finishes the workload with the bare
// machine's result.
func TestClusterLiveFailover(t *testing.T) {
	w := DiskWrite(3, 4096)
	opts := []Option{WithWorkload(w), WithEpochLength(4096), WithDiskLatency(500*Microsecond, 600*Microsecond)}
	bare, _ := runScenario(t, append(opts, Bare())...)
	c, err := NewCluster(opts...)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	snap, err := c.RunFor(5 * Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	if snap.Done {
		t.Fatal("workload finished before the failure could be injected")
	}
	c.FailPrimary()
	res, err := c.Wait(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if !res.Promoted {
		t.Fatal("backup did not promote after live failstop")
	}
	if res.GuestPanic != 0 {
		t.Fatalf("guest panic %#x", res.GuestPanic)
	}
	if res.Checksum != bare.Checksum {
		t.Errorf("failover checksum %#x != bare %#x", res.Checksum, bare.Checksum)
	}
}

// TestClusterRunUntilPredicate pauses a session at an epoch-boundary
// predicate and resumes it to completion.
func TestClusterRunUntilPredicate(t *testing.T) {
	c, err := NewCluster(WithWorkload(CPUIntensive(8000)), WithEpochLength(1024))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	snap, err := c.RunUntil(func(s Snapshot) bool { return s.Epochs >= 5 })
	if err != nil {
		t.Fatal(err)
	}
	if snap.Epochs < 5 {
		t.Fatalf("predicate stop at %d epochs, want >= 5", snap.Epochs)
	}
	if snap.Done {
		t.Fatal("workload should not have completed by epoch 5")
	}
	res, err := c.Wait(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if res.GuestPanic != 0 || res.Checksum == 0 {
		t.Fatalf("bad terminal result after predicate pause: %+v", res)
	}
}

// TestClusterWaitCancellation verifies context cancellation pauses the
// session at an epoch boundary and leaves it resumable.
func TestClusterWaitCancellation(t *testing.T) {
	c, err := NewCluster(WithWorkload(CPUIntensive(8000)), WithEpochLength(1024))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	ctx, cancel := context.WithCancel(context.Background())
	cancel() // cancellation observed at the first epoch boundary
	if _, err := c.Wait(ctx); err != context.Canceled {
		t.Fatalf("Wait(cancelled ctx) = %v, want context.Canceled", err)
	}
	if c.Done() {
		t.Fatal("session completed despite cancellation")
	}
	res, err := c.Wait(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if res.GuestPanic != 0 {
		t.Fatalf("guest panic %#x after resume", res.GuestPanic)
	}
}

// TestClusterLinkDegradation degrades the link mid-run and asserts the
// run still completes correctly — and slower than an unperturbed one.
func TestClusterLinkDegradation(t *testing.T) {
	run := func(degrade bool) Result {
		c, err := NewCluster(WithWorkload(CPUIntensive(6000)), WithEpochLength(1024))
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()
		if _, err := c.RunFor(5 * Millisecond); err != nil {
			t.Fatal(err)
		}
		if degrade {
			if err := c.SetLinkQuality(LinkQuality{BitsPerSecond: 1_000_000, Latency: 500 * Microsecond}); err != nil {
				t.Fatal(err)
			}
		}
		res, err := c.Wait(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	healthy := run(false)
	degraded := run(true)
	if degraded.Checksum != healthy.Checksum {
		t.Errorf("degraded link changed the result: %#x != %#x", degraded.Checksum, healthy.Checksum)
	}
	if degraded.Time <= healthy.Time {
		t.Errorf("10x slower link did not slow the run: %v <= %v", degraded.Time, healthy.Time)
	}
	if degraded.Promoted || healthy.Promoted {
		t.Error("degradation must not trigger failover")
	}
}

// TestClusterEvents exercises the Events subscription path with
// concurrent consumers (the go test -race target): two subscribers
// drain the stream from their own goroutines while the session runs
// through a live failover.
func TestClusterEvents(t *testing.T) {
	c, err := NewCluster(
		WithWorkload(DiskWrite(3, 4096)),
		WithDiskLatency(500*Microsecond, 600*Microsecond),
	)
	if err != nil {
		t.Fatal(err)
	}

	type tally struct {
		epochs, promotions, failstops, diskOps, completed int
	}
	consume := func(ch <-chan Event, out *tally, wg *sync.WaitGroup) {
		defer wg.Done()
		for ev := range ch {
			switch ev.Kind {
			case EventEpochCommitted:
				out.epochs++
			case EventPromoted:
				out.promotions++
				if ev.Node != 1 {
					t.Errorf("promotion from node %d, want 1", ev.Node)
				}
			case EventFailstop:
				out.failstops++
			case EventDiskOp:
				out.diskOps++
			case EventCompleted:
				out.completed++
			}
			if ev.String() == "" {
				t.Error("empty event rendering")
			}
		}
	}

	var a, b tally
	var wg sync.WaitGroup
	wg.Add(2)
	go consume(c.Events(), &a, &wg)
	go consume(c.Events(), &b, &wg)

	if _, err := c.RunFor(5 * Millisecond); err != nil {
		t.Fatal(err)
	}
	c.FailPrimary()
	if _, err := c.Wait(context.Background()); err != nil {
		t.Fatal(err)
	}
	c.Close() // closes the event channels; consumers drain and exit
	wg.Wait()

	for name, got := range map[string]tally{"a": a, "b": b} {
		if got.epochs == 0 {
			t.Errorf("subscriber %s saw no epoch commits", name)
		}
		if got.promotions != 1 {
			t.Errorf("subscriber %s saw %d promotions, want 1", name, got.promotions)
		}
		if got.failstops != 1 {
			t.Errorf("subscriber %s saw %d failstops, want 1", name, got.failstops)
		}
		if got.diskOps == 0 {
			t.Errorf("subscriber %s saw no disk ops", name)
		}
		if got.completed != 1 {
			t.Errorf("subscriber %s saw %d completions, want 1", name, got.completed)
		}
	}
	if a != b {
		t.Errorf("subscribers diverged: %+v vs %+v", a, b)
	}
}

// TestClusterAbandonedSubscriber verifies an Events channel that is
// never read does not leak its drain goroutine past Close: the backlog
// (well over the channel buffer) is forfeited within the teardown
// grace period.
func TestClusterAbandonedSubscriber(t *testing.T) {
	before := runtime.NumGoroutine()
	c, err := NewCluster(
		WithWorkload(CPUIntensive(8000)),
		WithEpochLength(1024),
	)
	if err != nil {
		t.Fatal(err)
	}
	_ = c.Events() // abandoned: never read
	if _, err := c.Wait(context.Background()); err != nil {
		t.Fatal(err)
	}
	if got := c.Snapshot(); got.Epochs < 65 {
		// The scenario must overflow the channel buffer to be a real
		// regression test for the blocked-send path.
		t.Fatalf("only %d epochs — backlog did not exceed the channel buffer", got.Epochs)
	}
	c.Close()
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	if n := runtime.NumGoroutine(); n > before {
		t.Errorf("goroutines leaked past Close: %d > %d", n, before)
	}
}

// TestSubscriberBacklogBounded: every simulated process is a step called
// on the driving goroutine, which never enters the Go scheduler, so on
// one P it alone would run until sysmon preempts it while the Events
// backlog grows by thousands. publish moves what fits of the backlog
// into the channel and yields once the channel is full, which keeps the
// backlog of a consumer that is reading within a small multiple of the
// channel's capacity (the ring's capacity is at most twice the largest
// backlog: it doubles only when full); a consumer that never reads is
// not waited for, and its channel is closed once Close's grace has
// passed. The backlog is sampled where it lives, on the driving
// goroutine.
func TestSubscriberBacklogBounded(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	newRun := func(t *testing.T) (*Cluster, *subscriber) {
		c, err := NewCluster(WithWorkload(CPUIntensive(200000)), WithEpochLength(256))
		if err != nil {
			t.Fatal(err)
		}
		c.Events()
		return c, c.subs[0]
	}
	// run drives c to completion, sampling s's backlog at every epoch
	// commit from the driving goroutine.
	run := func(t *testing.T, c *Cluster, s *subscriber) (epochs uint64, maxBacklog int) {
		snap, err := c.RunUntil(func(Snapshot) bool {
			maxBacklog = max(maxBacklog, s.backlog.Len())
			return false
		})
		if err != nil || !snap.Done {
			t.Fatalf("run did not complete: done=%v err=%v", snap.Done, err)
		}
		if snap.Epochs < 2000 {
			t.Fatalf("only %d epochs: too short to outrun a starved consumer", snap.Epochs)
		}
		return snap.Epochs, maxBacklog
	}

	t.Run("reading consumer", func(t *testing.T) {
		c, s := newRun(t)
		got := make(chan int)
		go func() {
			n := 0
			for range s.ch {
				n++
			}
			got <- n
		}()
		epochs, backlog := run(t, c, s)
		if limit := 4 * cap(s.ch); backlog > limit {
			t.Errorf("backlog reached %d events over %d epochs with the consumer reading, want <= %d", backlog, epochs, limit)
		}
		c.Close()
		if n := <-got; uint64(n) < epochs {
			t.Errorf("consumer saw %d events for %d epochs", n, epochs)
		}
	})

	t.Run("consumer that never reads", func(t *testing.T) {
		c, s := newRun(t)
		epochs, backlog := run(t, c, s)
		if uint64(backlog) < epochs {
			t.Errorf("backlog %d < %d epochs: something drained an unread subscription", backlog, epochs)
		}
		start := time.Now()
		c.Close()
		if d := time.Since(start); d > 2*time.Second {
			t.Errorf("Close took %v with an unread subscription, want about the 100 ms grace", d)
		}
		// Once the drain has given up, the channel holds what it held at
		// Close and is closed.
		if !waitClusterGoroutines(0, 2*time.Second) {
			t.Fatal("the drain goroutine outlived its grace")
		}
		for range cap(s.ch) {
			if _, ok := <-s.ch; !ok {
				t.Fatal("the unread channel lost its buffered events")
			}
		}
		select {
		case _, ok := <-s.ch:
			if ok {
				t.Error("an event was delivered to the unread channel after Close")
			}
		default:
			t.Error("the unread channel is still open after the grace")
		}
	})
}

// clusterGoroutines counts the live goroutines that the package's own
// code started (not a test's): an Events subscription's, if any.
func clusterGoroutines() int {
	buf := make([]byte, 1<<20)
	lines := strings.Split(string(buf[:runtime.Stack(buf, true)]), "\n")
	n := 0
	for i, l := range lines[:len(lines)-1] {
		if strings.HasPrefix(l, "created by repro.") && !strings.Contains(lines[i+1], "_test.go:") {
			n++
		}
	}
	return n
}

// waitClusterGoroutines waits up to d for clusterGoroutines to fall to
// want and reports whether it did.
func waitClusterGoroutines(want int, d time.Duration) bool {
	for deadline := time.Now().Add(d); clusterGoroutines() > want; time.Sleep(5 * time.Millisecond) {
		if time.Now().After(deadline) {
			return false
		}
	}
	return true
}

// TestSubscriberGoroutines: an Events subscription runs no goroutine
// while the cluster runs. Events, and a whole run that overfills the
// unread channel, publish from the driving goroutine alone; Close closes
// a channel whose backlog fits into it before it returns, and starts one
// drain goroutine only for a backlog that does not fit, which gives up
// after its grace when nobody reads.
func TestSubscriberGoroutines(t *testing.T) {
	if !waitClusterGoroutines(0, 2*time.Second) {
		t.Fatal("an earlier test's drain goroutine outlived its grace")
	}
	newCluster := func(t *testing.T) (*Cluster, <-chan Event) {
		c, err := NewCluster(WithWorkload(CPUIntensive(8000)), WithEpochLength(1024))
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { c.Close() })
		ch := c.Events()
		if n := clusterGoroutines(); n != 0 {
			t.Fatalf("Events started %d goroutines", n)
		}
		return c, ch
	}

	t.Run("backlog fits", func(t *testing.T) {
		c, ch := newCluster(t)
		if _, err := c.RunFor(Millisecond); err != nil {
			t.Fatal(err)
		}
		if n := len(ch); n == 0 || n == cap(ch) {
			t.Fatalf("the run left %d of %d events in the channel, want it partly filled", n, cap(ch))
		}
		buffered := len(ch)
		c.Close()
		if n := clusterGoroutines(); n != 0 {
			t.Errorf("Close with an empty backlog started %d goroutines", n)
		}
		for range buffered {
			<-ch
		}
		select {
		case _, ok := <-ch:
			if ok {
				t.Error("the channel carried more events than it held at Close")
			}
		default:
			t.Error("Close returned before closing the channel")
		}
	})

	t.Run("backlog overflows", func(t *testing.T) {
		c, ch := newCluster(t)
		snap, err := c.RunFor(Second)
		if err != nil || !snap.Done {
			t.Fatalf("run did not complete: done=%v err=%v", snap.Done, err)
		}
		if n := clusterGoroutines(); n != 0 {
			t.Fatalf("a run with an unread subscription started %d goroutines", n)
		}
		if len(ch) != cap(ch) || c.subs[0].backlog.Len() == 0 {
			t.Fatalf("channel %d of %d, backlog %d: the run did not overfill the subscription", len(ch), cap(ch), c.subs[0].backlog.Len())
		}
		start := time.Now()
		c.Close()
		if n := clusterGoroutines(); n != 1 {
			t.Errorf("Close with a backlog started %d goroutines, want one drain", n)
		}
		if !waitClusterGoroutines(0, 2*time.Second) {
			t.Fatal("the drain goroutine outlived its grace")
		}
		if d := time.Since(start); d < subscriberGrace {
			t.Errorf("the drain gave up after %v, before its %v grace", d, subscriberGrace)
		}
	})
}

// TestClusterSnapshotMidRun verifies observation mid-run, before and
// after completion.
func TestClusterSnapshotMidRun(t *testing.T) {
	c, err := NewCluster(WithWorkload(CPUIntensive(6000)), WithEpochLength(1024))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if s := c.Snapshot(); s.Booted {
		t.Error("cluster booted before first advancement")
	}
	mid, err := c.RunFor(10 * Millisecond)
	if err != nil {
		t.Fatal(err)
	}
	if !mid.Booted || mid.Done || mid.Epochs == 0 || mid.MessagesSent == 0 {
		t.Errorf("implausible mid-run snapshot: %+v", mid)
	}
	if mid.Now != 10*Millisecond {
		t.Errorf("snapshot time %v, want 10ms", mid.Now)
	}
	res, err := c.Wait(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	// The session ends when its last process exits — at or shortly
	// after the workload's completion time (the backup winds down).
	end := c.Snapshot()
	if !end.Done || !end.Halted || end.Now < res.Time || end.Now > res.Time+Second {
		t.Errorf("terminal snapshot inconsistent with result: %+v vs time %v", end, res.Time)
	}
	if !strings.Contains(end.Console, "C") {
		t.Errorf("console transcript missing: %q", end.Console)
	}
}

// TestBareSnapshotGuestInstructions: a bare session's Snapshot reports
// the bare machine's retired instructions. The unvirtualized guest
// retires one instruction per 20 ns cycle, so a CPU-bound run that never
// idles retires exactly its completion time's worth.
func TestBareSnapshotGuestInstructions(t *testing.T) {
	c, err := NewCluster(WithWorkload(CPUIntensive(2000)), Bare())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	mid, err := c.RunFor(200 * Microsecond)
	if err != nil {
		t.Fatal(err)
	}
	res, err := c.Wait(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	end := c.Snapshot()
	if mid.GuestInstructions == 0 || mid.GuestInstructions >= end.GuestInstructions {
		t.Errorf("bare guest instructions: %d mid-run, %d at the end", mid.GuestInstructions, end.GuestInstructions)
	}
	if want := uint64(res.Time / (20 * sim.Nanosecond)); !end.Halted || end.GuestInstructions != want {
		t.Errorf("bare terminal snapshot: %d instructions (halted=%v), want %d for %v at 50 MIPS",
			end.GuestInstructions, end.Halted, want, res.Time)
	}
}

// TestBareWedgedGuest: a bare guest that waits for an interrupt with
// nothing pending that could raise one is wedged. Its process ends
// without halting, and Wait reports the run incomplete instead of
// panicking.
func TestBareWedgedGuest(t *testing.T) {
	c, err := NewCluster(WithProgram(newAsmGuest(t, "wedge.s", "\twfi\n\thalt\n")), Bare())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if _, err := c.Wait(context.Background()); err == nil || !strings.Contains(err.Error(), "did not complete") {
		t.Fatalf("wedged bare guest: Wait returned %v, want a run that did not complete", err)
	}
	if c.Snapshot().Halted {
		t.Error("wedged bare guest reported halted")
	}
}

// abiProgram is a custom Program: it boots the stock guest image but
// performs its own ABI setup and result extraction through the public
// GuestMemory window — the plug point a from-scratch guest would use.
type abiProgram struct{ iters uint32 }

func (p abiProgram) Image() (uint32, []uint32, uint32) {
	img := guest.Program()
	return img.Origin, img.Words, 0
}

func (p abiProgram) Setup(mem GuestMemory) {
	mem.Store32(guest.ABIKind, guest.WorkloadCPU)
	mem.Store32(guest.ABIIters, p.iters)
}

func (p abiProgram) Result(mem GuestMemory) ProgramResult {
	return ProgramResult{
		Checksum: mem.Load32(guest.ABIResult),
		Panic:    mem.Load32(guest.ABIPanic),
	}
}

// TestClusterCustomProgram runs a user-supplied Program and checks it
// matches the equivalent built-in workload run.
func TestClusterCustomProgram(t *testing.T) {
	viaProgram, err := NewCluster(WithProgram(abiProgram{iters: 3000}))
	if err != nil {
		t.Fatal(err)
	}
	defer viaProgram.Close()
	got, err := viaProgram.Wait(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	want, _ := runScenario(t, WithWorkload(CPUIntensive(3000)))
	if got.Checksum != want.Checksum || got.Time != want.Time {
		t.Errorf("custom program drifted from built-in workload: %#x/%v vs %#x/%v",
			got.Checksum, got.Time, want.Checksum, want.Time)
	}
}

// TestNewClusterValidation covers the eager option-time rejections.
func TestNewClusterValidation(t *testing.T) {
	work := WithWorkload(CPUIntensive(100))
	cases := []struct {
		name string
		opts []Option
		want string
	}{
		{"no workload", nil, "no guest workload"},
		{"workload and program", []Option{work, WithProgram(abiProgram{iters: 1})}, "mutually exclusive"},
		{"zero seed", []Option{work, WithSeed(0)}, "zero seed"},
		{"zero epoch", []Option{work, WithEpochLength(0)}, "zero epoch"},
		{"oversized epoch", []Option{work, WithEpochLength(500000)}, "385,000"},
		{"negative backups", []Option{work, WithBackups(-1)}, "backups must be >= 1"},
		{"zero backups", []Option{work, WithBackups(0)}, "backups must be >= 1"},
		{"too many backups", []Option{work, WithBackups(maxBackups + 1)}, "backups must be >= 1 and <= 64"},
		{"bad link bandwidth", []Option{work, WithLink(LinkParams{Name: "dead"})}, "non-positive bandwidth"},
		{"negative frame overhead", []Option{work, WithLink(LinkParams{Name: "neg", BitsPerSecond: 1e7, FrameOverhead: -5000})}, "negative parameters"},
		{"negative message frames", []Option{work, WithLink(LinkParams{Name: "neg", BitsPerSecond: 1e7, PerMessageFrames: -50})}, "negative parameters"},
		{"negative detect timeout", []Option{work, WithDetectTimeout(-1)}, "non-positive detect timeout"},
		{"negative disk latency", []Option{work, WithDiskLatency(-1, 0)}, "negative disk latency"},
		{"nil program", []Option{WithProgram(nil)}, "nil Program"},
		{"nil option", []Option{work, nil}, "nil Option"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := NewCluster(tc.opts...)
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Errorf("NewCluster(%s) error = %v, want containing %q", tc.name, err, tc.want)
			}
		})
	}
}

// TestConfigValidationEager covers the cross-option rules NewCluster
// applies once every option has run — whatever order they were given in
// — and the documented default seed.
func TestConfigValidationEager(t *testing.T) {
	work := WithWorkload(CPUIntensive(100))
	// The client load precedes the workload that decides whether it fits.
	load := WithClientLoad(ClientLoad{})
	if _, err := NewCluster(load, work); err == nil || !strings.Contains(err.Error(), "requires the ServeRequests workload") {
		t.Errorf("client load on a CPU workload accepted: %v", err)
	}
	if _, err := NewCluster(load, WithWorkload(ServeRequests(4, 1))); err != nil {
		t.Errorf("client load before its ServeRequests workload rejected: %v", err)
	}
	// No WithSeed means seed 1.
	unset, _ := runScenario(t, work, WithEpochLength(1024))
	one, _ := runScenario(t, work, WithEpochLength(1024), WithSeed(1))
	if unset.Time != one.Time || unset.Checksum != one.Checksum {
		t.Errorf("the default seed is not 1: %v/%v", unset.Time, one.Time)
	}
}

// TestClusterReuseAfterClose verifies post-Close behavior is errors,
// not corruption.
func TestClusterReuseAfterClose(t *testing.T) {
	c, err := NewCluster(WithWorkload(CPUIntensive(500)))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := c.Wait(context.Background()); err != nil {
		t.Fatal(err)
	}
	c.Close()
	if _, err := c.RunFor(Millisecond); err != ErrClosed {
		t.Errorf("RunFor after Close = %v, want ErrClosed", err)
	}
	if _, err := c.Wait(context.Background()); err != ErrClosed {
		t.Errorf("Wait after Close = %v, want ErrClosed", err)
	}
	// The terminal result remains readable.
	if res, err := c.Result(); err != nil || res.Checksum == 0 {
		t.Errorf("Result after Close = %+v, %v", res, err)
	}
	// A subscription opened after Close is an immediately-closed channel.
	if _, ok := <-c.Events(); ok {
		t.Error("Events after Close delivered a value")
	}
}
