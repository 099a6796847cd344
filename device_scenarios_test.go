package hft

// Differential tests for the scenarios the generic device layer opens:
// multi-disk workloads (WithDisk, TwoDiskCopy) and terminal input
// (WithTerminal, TerminalEcho). The paper's claim — the environment
// cannot distinguish the replicated system from a single processor —
// is pinned replicated == bare for every scenario, including primary
// failstop and AddBackup reintegration, and multi-device sessions must
// checkpoint/restore bit-identically under both protocols and both
// links.

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"testing"
)

// fastDiskOpts keeps device latencies short so tests stay quick.
func fastDiskOpts() []Option {
	return []Option{
		WithDiskLatency(300*Microsecond, 350*Microsecond),
		WithDisk(DiskSpec{ReadLatency: 250 * Microsecond, WriteLatency: 400 * Microsecond}),
	}
}

// echoScript scripts n printable input bytes every step, then EOT.
func echoScript(n int, step Duration) []TerminalInput {
	var script []TerminalInput
	for i := 0; i < n; i++ {
		script = append(script, TerminalInput{
			At:   Duration(i+1) * step,
			Data: string(rune('a' + i%26)),
		})
	}
	script = append(script, TerminalInput{
		At:   Duration(n+1) * step,
		Data: string([]byte{TerminalEOT}),
	})
	return script
}

// runScenario drives a cluster built from opts to completion.
func runScenario(t *testing.T, opts ...Option) (Result, *Cluster) {
	t.Helper()
	return runFailing(t, nil, opts...)
}

// failure is one failstop a test injects: node 0 is the primary, node i
// backup i.
type failure struct {
	node int
	at   Duration
}

// inject failstops f's node of c at the current instant. A backup that
// can no longer fail because the workload completed is no error.
func (f failure) inject(t *testing.T, c *Cluster) {
	t.Helper()
	if f.node == 0 {
		c.FailPrimary()
	} else if err := c.FailBackup(f.node); err != nil && !errors.Is(err, ErrCompleted) {
		t.Fatal(err)
	}
}

// runFailing is runScenario with failstops injected live, in the order
// given (ascending at): RunFor up to each instant, then FailPrimary or
// FailBackup. One that lands after the workload completed does nothing.
func runFailing(t *testing.T, fails []failure, opts ...Option) (Result, *Cluster) {
	t.Helper()
	c, err := NewCluster(opts...)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	for _, f := range fails {
		if _, err := c.RunFor(f.at - c.Now()); err != nil {
			t.Fatal(err)
		}
		f.inject(t, c)
	}
	res, err := c.Wait(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if res.GuestPanic != 0 {
		t.Fatalf("guest panic %#x", res.GuestPanic)
	}
	return res, c
}

func TestTwoDiskCopyDifferential(t *testing.T) {
	w := TwoDiskCopy(5, 1024)
	base := append([]Option{WithWorkload(w)}, fastDiskOpts()...)

	bare, cb := runScenario(t, append(base, Bare())...)
	repl, cr := runScenario(t, base...)
	if repl.Checksum != bare.Checksum || repl.Console != bare.Console {
		t.Fatalf("replicated (%#x, %q) != bare (%#x, %q)",
			repl.Checksum, repl.Console, bare.Checksum, bare.Console)
	}
	if repl.Console != "2\n" {
		t.Errorf("console = %q, want 2\\n", repl.Console)
	}
	// Both disks saw traffic, and disk 1 holds the copied blocks.
	bd, rd := cb.eng.Disks(), cr.eng.Disks()
	if len(rd) != 2 {
		t.Fatalf("replicated cluster has %d disks, want 2", len(rd))
	}
	if len(rd[1].Log) == 0 {
		t.Fatal("disk 1 never touched")
	}
	for blk := uint32(16); blk < 21; blk++ {
		want := bd[1].ReadBlockDirect(blk)
		got := rd[1].ReadBlockDirect(blk)
		if !bytes.Equal(want, got) {
			t.Errorf("disk1 block %d differs between bare and replicated", blk)
		}
		src := rd[0].ReadBlockDirect(blk)
		if !bytes.Equal(got[:1024], src[:1024]) {
			t.Errorf("block %d not copied from disk0 to disk1", blk)
		}
	}
}

func TestTwoDiskCopyFailoverDifferential(t *testing.T) {
	w := TwoDiskCopy(5, 1024)
	base := append([]Option{WithWorkload(w)}, fastDiskOpts()...)

	bare, cb := runScenario(t, append(base, Bare())...)
	repl, cr := runFailing(t, []failure{{0, 2 * Millisecond}}, append(base, WithDetectTimeout(3*Millisecond))...)
	if !repl.Promoted {
		t.Fatal("primary failstop did not promote the backup")
	}
	if repl.Checksum != bare.Checksum || repl.Console != bare.Console {
		t.Fatalf("failover run (%#x, %q) != bare (%#x, %q)",
			repl.Checksum, repl.Console, bare.Checksum, bare.Console)
	}
	// Environment consistency on BOTH disks: committed writes per block
	// repeat identical content only (IO2 retries), and final contents
	// match the bare run.
	bd, rd := cb.eng.Disks(), cr.eng.Disks()
	for d := 0; d < 2; d++ {
		for blk := uint32(16); blk < 21; blk++ {
			hist := rd[d].WriteHistory(blk)
			for i := 1; i < len(hist); i++ {
				if hist[i] != hist[0] {
					t.Errorf("disk%d block %d: divergent writes %v", d, blk, hist)
				}
			}
			if !bytes.Equal(bd[d].ReadBlockDirect(blk), rd[d].ReadBlockDirect(blk)) {
				t.Errorf("disk%d block %d differs from bare after failover", d, blk)
			}
		}
	}
}

func TestTerminalEchoDifferential(t *testing.T) {
	script := echoScript(12, 2*Millisecond)
	base := []Option{WithWorkload(TerminalEcho()), WithTerminal(script...)}

	bare, _ := runScenario(t, append(base, Bare())...)
	want := "abcdefghijkl\n"
	if bare.Console != want {
		t.Fatalf("bare transcript = %q, want %q", bare.Console, want)
	}
	repl, _ := runScenario(t, base...)
	if repl.Console != bare.Console || repl.Checksum != bare.Checksum {
		t.Fatalf("replicated (%#x, %q) != bare (%#x, %q)",
			repl.Checksum, repl.Console, bare.Checksum, bare.Console)
	}
}

func TestTerminalEchoFailoverDifferential(t *testing.T) {
	// Primary dies mid-stream: input keeps arriving during the
	// detection window and after promotion. The promoted backup drains
	// undelivered input from its own port (generalized P7), re-emits
	// the failover epoch's suppressed echoes (ordinal dedup makes that
	// exactly-once), and the transcript equals the bare run's.
	script := echoScript(16, 2*Millisecond)
	base := []Option{WithWorkload(TerminalEcho()), WithTerminal(script...)}

	bare, _ := runScenario(t, append(base, Bare())...)
	for _, proto := range []Protocol{ProtocolOld, ProtocolNew} {
		for _, failAt := range []Duration{5 * Millisecond, 11 * Millisecond, 21 * Millisecond} {
			repl, _ := runFailing(t, []failure{{0, failAt}}, append(base,
				WithProtocol(proto),
				WithDetectTimeout(3*Millisecond))...)
			if !repl.Promoted {
				t.Fatalf("proto=%v failAt=%v: no promotion", proto, failAt)
			}
			if repl.Console != bare.Console || repl.Checksum != bare.Checksum {
				t.Fatalf("proto=%v failAt=%v: replicated (%#x, %q) != bare (%#x, %q)",
					proto, failAt, repl.Checksum, repl.Console, bare.Checksum, bare.Console)
			}
		}
	}
}

func TestTerminalEchoRepairChainDifferential(t *testing.T) {
	// The console-failover satellite: primary failstop, AddBackup
	// reintegration, then a failstop of the promoted backup — the
	// reintegrated joiner finishes the stream. Transcript still equals
	// the bare run's, byte for byte.
	script := echoScript(20, 5*Millisecond)
	base := []Option{WithWorkload(TerminalEcho()), WithTerminal(script...)}

	bare, _ := runScenario(t, append(base, Bare())...)

	c, err := NewCluster(append(base, WithDetectTimeout(3*Millisecond))...)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if _, err := c.RunFor(8 * Millisecond); err != nil {
		t.Fatal(err)
	}
	c.FailPrimary()
	if _, err := c.RunUntil(func(s Snapshot) bool { return s.Promoted }); err != nil {
		t.Fatal(err)
	}
	n, err := c.AddBackup()
	if err != nil {
		t.Fatal(err)
	}
	if n != 2 {
		t.Fatalf("joiner index = %d, want 2", n)
	}
	// Let the transfer land and the joiner catch up, then kill the
	// acting coordinator; the reintegrated node must take over.
	if _, err := c.RunFor(40 * Millisecond); err != nil {
		t.Fatal(err)
	}
	if err := c.FailBackup(1); err != nil {
		t.Fatal(err)
	}
	res, err := c.Wait(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if res.GuestPanic != 0 {
		t.Fatalf("guest panic %#x", res.GuestPanic)
	}
	if res.Console != bare.Console || res.Checksum != bare.Checksum {
		t.Fatalf("repair chain (%#x, %q) != bare (%#x, %q)",
			res.Checksum, res.Console, bare.Checksum, bare.Console)
	}
}

func TestMultiDeviceSnapshotRoundTrip(t *testing.T) {
	// Snapshot round-trips of multi-device state — two disks plus a
	// terminal with pending input — for both protocols and both links.
	// The copy workload never reads the terminal, so scripted input
	// stays pending in the console shadow across the checkpoint, and
	// Restore's section-by-section verification covers it.
	cases := []struct {
		name  string
		proto Protocol
		link  LinkParams
	}{
		{"old-ethernet", ProtocolOld, Ethernet10()},
		{"new-ethernet", ProtocolNew, Ethernet10()},
		{"old-atm", ProtocolOld, ATM155()},
		{"new-atm", ProtocolNew, ATM155()},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			mk := func() *Cluster {
				opts := append([]Option{
					WithWorkload(TwoDiskCopy(4, 512)),
					WithProtocol(tc.proto),
					WithLink(tc.link),
					WithTerminal(TerminalInput{At: 500 * Microsecond, Data: "zz"}),
				}, fastDiskOpts()...)
				c, err := NewCluster(opts...)
				if err != nil {
					t.Fatal(err)
				}
				return c
			}

			orig := mk()
			defer orig.Close()
			if _, err := orig.RunUntil(func(s Snapshot) bool { return s.DiskOps >= 3 }); err != nil {
				t.Fatal(err)
			}
			var buf bytes.Buffer
			if err := orig.Save(&buf); err != nil {
				t.Fatal(err)
			}
			restored, err := Restore(bytes.NewReader(buf.Bytes()))
			if err != nil {
				t.Fatal(err)
			}
			defer restored.Close()
			finishAndCompare(t, fmt.Sprintf("%s multi-device", tc.name), orig, restored)

			// And against a never-snapshotted control run.
			control := mk()
			defer control.Close()
			cres, err := control.Wait(context.Background())
			if err != nil {
				t.Fatal(err)
			}
			rres, err := restored.Result()
			if err != nil {
				t.Fatal(err)
			}
			if cres != rres {
				t.Fatalf("restored result differs from control:\n  restored: %+v\n  control:  %+v", rres, cres)
			}
		})
	}
}

func TestDeviceEventsTagged(t *testing.T) {
	// EventDiskOp carries the disk identity; terminal input surfaces as
	// its own tagged event.
	opts := append([]Option{
		WithWorkload(TwoDiskCopy(2, 512)),
		WithTerminal(TerminalInput{At: 1 * Millisecond, Data: "k"}),
	}, fastDiskOpts()...)
	c, err := NewCluster(opts...)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	events := c.Events()
	if _, err := c.Wait(context.Background()); err != nil {
		t.Fatal(err)
	}
	c.Close()
	devs := map[string]int{}
	termData := ""
	for ev := range events {
		switch ev.Kind {
		case EventDiskOp:
			devs[ev.Device()]++
		case EventTerminalInput:
			devs[ev.Device()]++
			termData += ev.TerminalData()
		}
	}
	if devs["disk0"] == 0 || devs["disk1"] == 0 {
		t.Errorf("disk events not tagged per device: %v", devs)
	}
	if devs["console"] != 1 || termData != "k" {
		t.Errorf("terminal input event missing or wrong: %v data %q", devs, termData)
	}
}

func TestValidationOfDeviceScenarios(t *testing.T) {
	cases := []struct {
		name string
		opts []Option
	}{
		{"copy-without-second-disk", []Option{WithWorkload(TwoDiskCopy(2, 512))}},
		{"echo-without-terminal", []Option{WithWorkload(TerminalEcho())}},
		{"echo-without-eot", []Option{
			WithWorkload(TerminalEcho()),
			WithTerminal(TerminalInput{At: Millisecond, Data: "x"}),
		}},
		{"negative-disk-latency", []Option{
			WithWorkload(CPUIntensive(10)),
			WithDisk(DiskSpec{ReadLatency: -1}),
		}},
		{"empty-terminal-script", []Option{WithWorkload(CPUIntensive(10)), WithTerminal()}},
		{"zero-time-input", []Option{
			WithWorkload(CPUIntensive(10)),
			WithTerminal(TerminalInput{At: 0, Data: "x"}),
		}},
	}
	for _, tc := range cases {
		if _, err := NewCluster(tc.opts...); err == nil {
			t.Errorf("%s: accepted", tc.name)
		}
	}
}

func TestTerminalScriptOrderIndependentValidation(t *testing.T) {
	// EOT validation follows delivery time, not option order.
	outOfOrder := []Option{
		WithWorkload(TerminalEcho()),
		WithTerminal(
			TerminalInput{At: 10 * Millisecond, Data: string([]byte{TerminalEOT})},
			TerminalInput{At: 1 * Millisecond, Data: "x"},
		),
	}
	if _, err := NewCluster(outOfOrder...); err != nil {
		t.Errorf("temporally-EOT-terminated script rejected: %v", err)
	}
	trailing := []Option{
		WithWorkload(TerminalEcho()),
		WithTerminal(
			TerminalInput{At: 1 * Millisecond, Data: string([]byte{TerminalEOT})},
			TerminalInput{At: 10 * Millisecond, Data: "x"},
		),
	}
	if _, err := NewCluster(trailing...); err == nil {
		t.Error("script with input after EOT accepted (it would never be echoed)")
	}
}
