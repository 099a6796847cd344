package hft

import (
	"context"
	"flag"
	"fmt"
	"os"
	"strings"
	"testing"

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

// eventScenarios renders the pinned stream, one section per scenario,
// and reports which kinds it carried.
func eventScenarios(t *testing.T) (lines []string, kinds map[EventKind]bool) {
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
			lines = append(lines, fmt.Sprintf("%s | dev=%q term=%q", ev, ev.Device(), ev.TerminalData()))
		}
	}

	// A replicated network service under output commit: client load on
	// the NIC, terminal input on the console, a link degradation, a
	// primary failstop, and a reintegrated backup finishing the run.
	svc := newCluster(
		WithWorkload(ServeRequests(12, 50)),
		WithClientLoad(ClientLoad{Clients: 4, MeanGap: 300 * Microsecond}),
		WithOutputCommit(OutputCommit{Window: 4, Adaptive: true}),
		WithTerminal(TerminalInput{At: 500 * Microsecond, Data: "hi"}, TerminalInput{At: 2 * Millisecond, Data: "x\x04"}),
		WithDetectTimeout(2*Millisecond),
	)
	section("service", collectEvents(svc, func() {
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
	}))

	// Two shared disks: disk operations tagged disk0 and disk1.
	disks := newCluster(append([]Option{WithWorkload(TwoDiskCopy(2, 512)), WithEpochLength(16384)}, fastDiskOpts()...)...)
	section("disks", collectEvents(disks, func() {
		_, err := disks.Wait(context.Background())
		must(err)
	}))

	// A Program that configures its replicas differently: the backup's
	// digest check fails, the divergence is published, and the session
	// panics (the replication tripwire).
	calls := 0
	div := newCluster(WithProgram(divergentProgram{calls: &calls}))
	section("divergence", collectEvents(div, func() {
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

// TestEventsNoSubscriberAllocs guards the path an event takes when nobody
// subscribes: a disk operation, observed through the shared disk's
// completion hook, and an epoch commit are built, stamped, published and
// dropped without allocating (Device is derived when read, never
// formatted at emit).
func TestEventsNoSubscriberAllocs(t *testing.T) {
	c, err := NewCluster(WithWorkload(CPUIntensive(2000)))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if _, err := c.RunFor(100 * Microsecond); err != nil {
		t.Fatal(err)
	}
	onOp := c.eng.Disks()[0].OnOp
	if a := testing.AllocsPerRun(100, func() { onOp(scsi.OpRecord{Cmd: scsi.CmdWrite, Block: 7}) }); a != 0 {
		t.Errorf("a disk-op event allocates %v times with no subscriber", a)
	}
	commit := Event{Kind: EventEpochCommitted, Time: c.Now(), Epoch: 3, Tme: 99}
	if a := testing.AllocsPerRun(100, func() { c.publish(commit) }); a != 0 {
		t.Errorf("an epoch-commit event allocates %v times with no subscriber", a)
	}
}
