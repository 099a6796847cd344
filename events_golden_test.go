package hft

import (
	"bytes"
	"context"
	"flag"
	"fmt"
	"os"
	"runtime"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/guest"
	"repro/internal/scsi"
)

// The event stream is contract too: dashboards and the benchmark's
// span derivation read String, Device and TerminalData off every
// Events() item. TestEventStreamGolden drives three scenarios that
// between them fire every EventKind and pins each item's rendering to
// testdata/events.golden.txt. After an intentional change, regenerate
// with:
//
//	go test -run TestEventStreamGolden -update-events .
//
// The one DIVERGED line prints the two replicas' state digests, so it
// moves with the digest's definition: its values are the word hash's
// (snapshot.Mix), which replaced byte-serial FNV-64a in snapshot format 8.

var updateEvents = flag.Bool("update-events", false, "rewrite testdata/events.golden.txt from the current event stream")

// collectEvents subscribes to c, runs drive, closes c and returns every
// event the subscription carried.
func collectEvents(c *Cluster, drive func()) []Event {
	events := c.Events()
	done := make(chan []Event)
	go func() {
		var evs []Event
		for ev := range events {
			evs = append(evs, ev)
		}
		done <- evs
	}()
	drive()
	c.Close()
	return <-done
}

// divergentProgram boots the stock guest but configures the second
// replica it sets up with a different iteration count: a Program that
// breaks the determinism contract, so the backup's first digest check
// fails.
type divergentProgram struct{ calls *int }

func (p divergentProgram) Image() (uint32, []uint32, uint32) {
	img := guest.Program()
	return img.Origin, img.Words, 0
}

func (p divergentProgram) Setup(mem GuestMemory) {
	*p.calls++
	mem.Store32(guest.ABIKind, guest.WorkloadCPU)
	mem.Store32(guest.ABIIters, uint32(2000+*p.calls))
}

func (p divergentProgram) Result(mem GuestMemory) ProgramResult {
	return ProgramResult{Checksum: mem.Load32(guest.ABIResult)}
}

// renderEvent is one line of the golden: everything a consumer reads
// off an event.
func renderEvent(ev Event) string {
	return fmt.Sprintf("%s | dev=%q term=%q", ev, ev.Device(), ev.TerminalData())
}

// serviceScenario is the golden's first scenario, a replicated network
// service under output commit: client load on the NIC, terminal input
// on the console, a link degradation, a primary failstop, and a
// reintegrated backup finishing the run. It returns the cluster and the
// drive that runs it to completion.
func serviceScenario(t *testing.T) (*Cluster, func()) {
	must := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}
	svc, err := NewCluster(
		WithWorkload(ServeRequests(12, 50)),
		WithClientLoad(ClientLoad{Clients: 4, MeanGap: 300 * Microsecond}),
		WithOutputCommit(OutputCommit{Window: 4, Adaptive: true}),
		WithTerminal(TerminalInput{At: 500 * Microsecond, Data: "hi"}, TerminalInput{At: 2 * Millisecond, Data: "x\x04"}),
		WithDetectTimeout(2*Millisecond),
	)
	must(err)
	return svc, func() {
		_, err := svc.RunFor(1 * Millisecond)
		must(err)
		must(svc.SetLinkQuality(LinkQuality{BitsPerSecond: 4_000_000}))
		_, err = svc.RunFor(1 * Millisecond)
		must(err)
		svc.FailPrimary()
		_, err = svc.RunUntil(func(s Snapshot) bool { return s.Promoted })
		must(err)
		_, err = svc.AddBackup()
		must(err)
		_, err = svc.Wait(context.Background())
		must(err)
	}
}

// observeEvents is collectEvents through Observe: every event c
// publishes while drive runs, gathered on the driving goroutine.
func observeEvents(c *Cluster, drive func()) []Event {
	var evs []Event
	c.Observe(func(ev Event) { evs = append(evs, ev) })
	drive()
	c.Close()
	return evs
}

// eventScenarios renders the pinned stream, one section per scenario,
// and reports which kinds it carried.
func eventScenarios(t *testing.T) (lines []string, kinds map[EventKind]bool) {
	return eventScenariosVia(t, collectEvents)
}

// eventScenariosVia is eventScenarios with each scenario's events
// gathered by collect.
func eventScenariosVia(t *testing.T, collect func(*Cluster, func()) []Event) (lines []string, kinds map[EventKind]bool) {
	must := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}
	newCluster := func(opts ...Option) *Cluster {
		t.Helper()
		c, err := NewCluster(opts...)
		must(err)
		return c
	}
	kinds = map[EventKind]bool{}
	section := func(name string, evs []Event) {
		lines = append(lines, "== "+name)
		for _, ev := range evs {
			kinds[ev.Kind] = true
			lines = append(lines, renderEvent(ev))
		}
	}

	svc, drive := serviceScenario(t)
	section("service", collect(svc, drive))

	// Two shared disks: disk operations tagged disk0 and disk1.
	disks := newCluster(append([]Option{WithWorkload(TwoDiskCopy(2, 512)), WithEpochLength(16384)}, fastDiskOpts()...)...)
	section("disks", collect(disks, func() {
		_, err := disks.Wait(context.Background())
		must(err)
	}))

	// A Program that configures its replicas differently: the backup's
	// digest check fails, the divergence is published, and the session
	// panics (the replication tripwire).
	calls := 0
	div := newCluster(WithProgram(divergentProgram{calls: &calls}))
	section("divergence", collect(div, func() {
		defer func() {
			if r := recover(); r == nil || !strings.Contains(fmt.Sprint(r), "divergence") {
				t.Fatalf("divergent program: recovered %v, want a divergence panic", r)
			}
		}()
		div.Wait(context.Background())
	}))
	return lines, kinds
}

// TestEventStreamGolden pins the rendering of every event three
// scenarios publish, and checks that together they fire every kind.
func TestEventStreamGolden(t *testing.T) {
	lines, kinds := eventScenarios(t)
	for k := EventEpochCommitted; k <= EventOutputCommitted; k++ {
		if !kinds[k] {
			t.Errorf("no scenario fired %v", k)
		}
	}
	got := strings.Join(lines, "\n") + "\n"
	const path = "testdata/events.golden.txt"
	if *updateEvents {
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("rewrote %s (%d lines)", path, len(lines))
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("reading %s (regenerate with -update-events): %v", path, err)
	}
	if got != string(want) {
		wl := strings.Split(string(want), "\n")
		for i, l := range strings.Split(got, "\n") {
			if i >= len(wl) || l != wl[i] {
				w := "<end of golden>"
				if i < len(wl) {
					w = wl[i]
				}
				t.Fatalf("event stream differs at line %d:\n got %s\nwant %s", i+1, l, w)
			}
		}
		t.Fatalf("event stream is a prefix of the golden (%d of %d lines)", len(lines), len(wl)-1)
	}
}

// TestObserveGolden: an observer sees the stream an Events()
// subscription carries, byte for byte as pinned by the golden.
func TestObserveGolden(t *testing.T) {
	lines, _ := eventScenariosVia(t, observeEvents)
	want, err := os.ReadFile("testdata/events.golden.txt")
	if err != nil {
		t.Fatal(err)
	}
	if got := strings.Join(lines, "\n") + "\n"; got != string(want) {
		t.Fatalf("the observed stream differs from the golden:\n%s", got)
	}
}

// TestObserveAfterRestore: an observer attached to a restored cluster
// sees exactly what an Events() subscription opened at the same point
// carries — the events after the checkpoint's pause, none of the replay.
func TestObserveAfterRestore(t *testing.T) {
	c, err := NewCluster(WithWorkload(CPUIntensive(20000)))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if _, err := c.RunFor(2 * Millisecond); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := c.Save(&buf); err != nil {
		t.Fatal(err)
	}
	r, err := Restore(&buf)
	if err != nil {
		t.Fatal(err)
	}
	var observed []Event
	r.Observe(func(ev Event) { observed = append(observed, ev) })
	subscribed := collectEvents(r, func() {
		if _, err := r.RunFor(3 * Millisecond); err != nil {
			t.Fatal(err)
		}
		r.FailPrimary()
		if _, err := r.Wait(context.Background()); err != nil {
			t.Fatal(err)
		}
	})
	if len(observed) == 0 || observed[0].Time < 2*Millisecond || observed[len(observed)-1].Kind != EventCompleted {
		t.Fatalf("observed %d events, want the run from 2 ms to completion", len(observed))
	}
	failstop := slices.IndexFunc(observed, func(ev Event) bool { return ev.Kind == EventFailstop })
	if failstop < 0 || observed[failstop].Time != 5*Millisecond {
		t.Fatal("observed no failstop of the restored cluster's primary at 5 ms")
	}
	if !slices.Equal(observed, subscribed) {
		t.Fatalf("observer saw %d events, subscription %d, or they differ", len(observed), len(subscribed))
	}
}

// TestObserveAfterClose: Close detaches every observer, and Observe on a
// closed cluster registers nothing.
func TestObserveAfterClose(t *testing.T) {
	c, err := NewCluster(WithWorkload(CPUIntensive(2000)))
	if err != nil {
		t.Fatal(err)
	}
	var early, late int
	c.Observe(func(Event) { early++ })
	if _, err := c.RunFor(Millisecond); err != nil {
		t.Fatal(err)
	}
	c.Close()
	atClose := early
	if atClose == 0 {
		t.Fatal("the observer saw nothing before Close")
	}
	c.Observe(func(Event) { late++ })
	c.publish(Event{Kind: EventEpochCommitted, Time: c.Now()})
	if _, err := c.RunFor(Millisecond); err != ErrClosed {
		t.Fatalf("RunFor after Close = %v, want ErrClosed", err)
	}
	if early != atClose || late != 0 {
		t.Errorf("after Close: %d more events to the early observer, %d to the late one", early-atClose, late)
	}
}

// TestEventsNoSubscriberAllocs guards the path an event takes when nobody
// subscribes, and through an observer that keeps nothing: a disk
// operation, observed through the shared disk's completion hook, and an
// epoch commit are built, stamped, published and dropped without
// allocating (Device is derived when read, never formatted at emit).
func TestEventsNoSubscriberAllocs(t *testing.T) {
	for _, observe := range []bool{false, true} {
		c, err := NewCluster(WithWorkload(CPUIntensive(2000)))
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()
		who := "with no subscriber"
		if observe {
			who = "through a no-op observer"
			c.Observe(func(Event) {})
		}
		if _, err := c.RunFor(100 * Microsecond); err != nil {
			t.Fatal(err)
		}
		onOp := c.eng.Disks()[0].OnOp
		if a := testing.AllocsPerRun(100, func() { onOp(scsi.OpRecord{Cmd: scsi.CmdWrite, Block: 7}) }); a != 0 {
			t.Errorf("a disk-op event allocates %v times %s", a, who)
		}
		commit := Event{Kind: EventEpochCommitted, Time: c.Now(), Epoch: 3, Tme: 99}
		if a := testing.AllocsPerRun(100, func() { c.publish(commit) }); a != 0 {
			t.Errorf("an epoch-commit event allocates %v times %s", a, who)
		}
	}
}

// TestSubscriberHandoffOrder: publish pushes every event onto the
// backlog and moves the backlog into the channel from its head, so every
// subscription carries the stream exactly once and in order however its
// consumer keeps up. Two consumers read the golden's service scenario at
// one and two Ps, after two channels' worth of marker events published
// to the subscriptions directly (the scenario alone publishes fewer
// events than a channel holds). One reads as fast as it can. The other
// reads one channel's worth in bursts with sleeps between them while
// the run publishes behind its backlog, then stops until the run is
// over: its channel is full and the rest of the stream waits in the
// backlog when Close comes, and it reads on in bursts while Close's
// drain goroutine delivers that backlog.
func TestSubscriberHandoffOrder(t *testing.T) {
	golden, err := os.ReadFile("testdata/events.golden.txt")
	if err != nil {
		t.Fatal(err)
	}
	body, _, _ := strings.Cut(string(golden), "\n== disks\n")
	want := strings.Split(strings.TrimPrefix(body, "== service\n"), "\n")

	for _, procs := range []int{1, 2} {
		t.Run(fmt.Sprintf("GOMAXPROCS=%d", procs), func(t *testing.T) {
			defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
			c, drive := serviceScenario(t)
			fastCh, burstyCh := c.Events(), c.Events()
			buffer := cap(fastCh)
			var fast, bursty []Event
			closing := make(chan struct{})
			var wg sync.WaitGroup
			wg.Add(2)
			go func() {
				defer wg.Done()
				for ev := range fastCh {
					fast = append(fast, ev)
				}
			}()
			go func() {
				defer wg.Done()
				for ev := range burstyCh {
					bursty = append(bursty, ev)
					if len(bursty) == buffer {
						<-closing
					}
					if len(bursty)%7 == 0 {
						time.Sleep(time.Millisecond)
					}
				}
			}()

			var markers []Event
			for i := range 2 * buffer {
				ev := Event{Kind: EventEpochCommitted, Node: -1, Epoch: uint64(i)}
				markers = append(markers, ev)
				c.publish(ev)
			}
			drive()
			if c.subs[1].backlog.Len() == 0 {
				t.Fatal("the paused subscription has no backlog in its ring at Close")
			}
			close(closing)
			c.Close()
			wg.Wait()

			for name, got := range map[string][]Event{"fast": fast, "bursty": bursty} {
				if len(got) != len(markers)+len(want) {
					t.Fatalf("%s consumer saw %d events, want %d markers and %d golden events", name, len(got), len(markers), len(want))
				}
				for i, ev := range got[:len(markers)] {
					if ev != markers[i] {
						t.Fatalf("%s consumer: event %d is %v, want marker %d", name, i, ev, i)
					}
				}
				for i, ev := range got[len(markers):] {
					if line := renderEvent(ev); line != want[i] {
						t.Fatalf("%s consumer: event %d of the scenario is\n %s\nwant\n %s", name, i, line, want[i])
					}
				}
			}
		})
	}
}
