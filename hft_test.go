package hft

import (
	"io"
	"strings"
	"testing"

	"repro/internal/sim"
)

// normalized runs opts bare and replicated and returns N'/N — the
// paper's figure of merit — after checking the two runs agree.
func normalized(t *testing.T, opts ...Option) float64 {
	t.Helper()
	bare, _ := runScenario(t, append(opts[:len(opts):len(opts)], Bare())...)
	repl, _ := runScenario(t, opts...)
	if bare.Checksum != repl.Checksum {
		t.Fatalf("replica result %#x differs from bare %#x", repl.Checksum, bare.Checksum)
	}
	return float64(repl.Time) / float64(bare.Time)
}

func TestNormalizedPerformanceCPU(t *testing.T) {
	np := normalized(t, WithWorkload(CPUIntensive(5000)), WithEpochLength(4096))
	if np <= 1 {
		t.Errorf("np = %.3f, want > 1", np)
	}
	// The paper's regime at 4K epochs.
	if np < 3 || np > 12 {
		t.Errorf("np = %.3f, expected near the paper's 6.5", np)
	}
}

func TestRunBareAndReplicatedAgree(t *testing.T) {
	opts := []Option{WithWorkload(CPUIntensive(3000)), WithEpochLength(2048)}
	bare, _ := runScenario(t, append(opts, Bare())...)
	repl, _ := runScenario(t, opts...)
	if bare.Checksum != repl.Checksum {
		t.Errorf("checksums differ: %#x vs %#x", bare.Checksum, repl.Checksum)
	}
	if bare.Console != repl.Console {
		t.Errorf("consoles differ: %q vs %q", bare.Console, repl.Console)
	}
	if repl.Divergences != 0 {
		t.Errorf("divergences = %d", repl.Divergences)
	}
	if repl.MessagesSent == 0 {
		t.Error("no protocol messages sent")
	}
	if bare.MessagesSent != 0 || bare.Promoted {
		t.Errorf("bare run reports protocol activity: %+v", bare)
	}
}

func TestFailoverThroughPublicAPI(t *testing.T) {
	opts := []Option{
		WithWorkload(DiskWrite(3, 4096)),
		WithEpochLength(4096),
		WithDiskLatency(500*Microsecond, 600*Microsecond),
	}
	bare, _ := runScenario(t, append(opts, Bare())...)
	repl, _ := runFailing(t, []failure{{0, 5 * Millisecond}}, opts...)
	if !repl.Promoted {
		t.Fatal("backup did not promote")
	}
	if repl.Checksum != bare.Checksum {
		t.Errorf("failover checksum %#x != bare %#x", repl.Checksum, bare.Checksum)
	}
}

// TestConfigValidation: a bare session validates its options as eagerly
// as a replicated one, including the replica-set options it will ignore.
func TestConfigValidation(t *testing.T) {
	work := WithWorkload(CPUIntensive(10))
	_, err := NewCluster(work, WithEpochLength(500000), Bare())
	if err == nil || !strings.Contains(err.Error(), "385,000") {
		t.Errorf("oversized epoch accepted: %v", err)
	}
	_, err = NewCluster(work, Bare(), WithLink(LinkParams{Name: "dead"}))
	if err == nil || !strings.Contains(err.Error(), "non-positive bandwidth") {
		t.Errorf("bad link accepted: %v", err)
	}
}

func TestProtocolComparison(t *testing.T) {
	work, el := WithWorkload(CPUIntensive(5000)), WithEpochLength(2048)
	oldNP := normalized(t, work, el, WithProtocol(ProtocolOld))
	newNP := normalized(t, work, el, WithProtocol(ProtocolNew))
	if newNP >= oldNP {
		t.Errorf("revised protocol (%.2f) not faster than original (%.2f)", newNP, oldNP)
	}
}

func TestLinkComparison(t *testing.T) {
	work, el := WithWorkload(CPUIntensive(5000)), WithEpochLength(4096)
	eth := normalized(t, work, el, WithLink(Ethernet10()))
	atm := normalized(t, work, el, WithLink(ATM155()))
	if atm >= eth {
		t.Errorf("ATM (%.2f) not faster than Ethernet (%.2f)", atm, eth)
	}
}

func TestSeedReproducibility(t *testing.T) {
	opts := []Option{
		WithWorkload(DiskRead(2, 2048)), WithEpochLength(4096), WithSeed(99),
		WithDiskLatency(300*Microsecond, 300*Microsecond),
	}
	a, _ := runScenario(t, opts...)
	b, _ := runScenario(t, opts...)
	if a.Time != b.Time || a.Checksum != b.Checksum {
		t.Errorf("same seed, different runs: %v/%#x vs %v/%#x", a.Time, a.Checksum, b.Time, b.Checksum)
	}
}

func TestTwoFaultToleranceThroughPublicAPI(t *testing.T) {
	opts := []Option{
		WithWorkload(DiskWrite(3, 2048)),
		WithEpochLength(4096),
		WithBackups(2),
		WithDiskLatency(400*Microsecond, 500*Microsecond),
	}
	bare, _ := runScenario(t, append(opts, Bare())...)
	repl, _ := runFailing(t, []failure{{0, 2 * Millisecond}, {1, 120 * Millisecond}}, opts...)
	if !repl.Promoted {
		t.Fatal("no promotion under double failure")
	}
	if repl.Checksum != bare.Checksum {
		t.Errorf("double-failure checksum %#x != bare %#x", repl.Checksum, bare.Checksum)
	}
}

// TestResultCountsEveryReplica: Result's protocol counters sum every
// replica, as Snapshot's do — here node 2 takes over after both the
// primary and backup 1 fail, and the uncertain interrupt it synthesizes
// is in the Result too.
func TestResultCountsEveryReplica(t *testing.T) {
	res, c := runFailing(t, []failure{{0, 2 * Millisecond}, {1, 80 * Millisecond}},
		WithWorkload(DiskWrite(6, 2048)),
		WithBackups(2),
		WithDiskLatency(400*Microsecond, 500*Microsecond),
	)
	s := c.Snapshot()
	if s.Acting != 2 || s.UncertainSynthesized == 0 {
		t.Fatalf("scenario drifted: acting node %d, %d uncertain interrupts synthesized; want node 2 and some",
			s.Acting, s.UncertainSynthesized)
	}
	if res.UncertainSynthesized != s.UncertainSynthesized || res.Divergences != s.Divergences {
		t.Errorf("Result reports %d synthesized, %d divergences; Snapshot %d, %d",
			res.UncertainSynthesized, res.Divergences, s.UncertainSynthesized, s.Divergences)
	}
}

// TestFailPrimaryAtAnyInstant is the paper's core claim under fire: no
// matter when the primary failstops — mid-epoch, mid-I/O, inside the
// two-generals window, during boundary coordination — the workload
// completes with the single-machine result, later than bare.
func TestFailPrimaryAtAnyInstant(t *testing.T) {
	// spread returns n instants over [lo, hi) by the golden-ratio
	// sequence, so a sweep covers boundaries, mid-epochs and I/O windows
	// without a fixed stride's aliasing.
	spread := func(lo, hi Duration, n int) []Duration {
		var out []Duration
		x := 0.0
		for i := 0; i < n; i++ {
			x += 0.6180339887498949
			x -= float64(int(x))
			out = append(out, lo+Duration(x*float64(hi-lo)))
		}
		return out
	}
	// hftbench's quick-scale I/O benchmarks; the sweeps shorten the disk.
	quick := func(w Workload) Option {
		w.PreOp, w.PrivOps = 1300, 258
		return WithWorkload(w)
	}
	sweepDisk := WithDiskLatency(400*Microsecond, 500*Microsecond)
	for _, c := range []struct {
		name     string
		opts     []Option
		at       []Duration
		failover bool // at least one instant must promote the backup
	}{
		{"during-workload", []Option{quick(DiskWrite(4, 2048)), WithEpochLength(4096),
			WithDiskLatency(Duration(24.2*float64(Millisecond)/4), 26*Millisecond/4)},
			[]Duration{3 * Millisecond}, true},
		// The replicated write workload runs ~15-30 ms here; sweep the
		// first 20 ms densely.
		{"disk-write", []Option{quick(DiskWrite(3, 2048)), sweepDisk, WithEpochLength(4096)},
			spread(100*Microsecond, 20*Millisecond, 12), true},
		{"disk-read", []Option{quick(DiskRead(3, 2048)), sweepDisk, WithEpochLength(2048)},
			spread(200*Microsecond, 15*Millisecond, 8), false},
		// The revised protocol's window (§4.3): unacknowledged messages +
		// failstop. The I/O gate must keep the environment consistent.
		{"new-protocol", []Option{quick(DiskWrite(3, 2048)), sweepDisk, WithEpochLength(4096), WithProtocol(ProtocolNew)},
			spread(100*Microsecond, 12*Millisecond, 8), false},
		{"cpu", []Option{WithWorkload(CPUIntensive(3000)), sweepDisk, WithEpochLength(1024)},
			spread(50*Microsecond, 5*Millisecond, 6), false},
	} {
		t.Run(c.name, func(t *testing.T) {
			bare, _ := runScenario(t, append(c.opts, Bare())...)
			promotions := 0
			for _, at := range c.at {
				repl, _ := runFailing(t, []failure{{0, at}}, c.opts...)
				if repl.Checksum != bare.Checksum {
					t.Errorf("fail at %v: checksum %#x != bare %#x", at, repl.Checksum, bare.Checksum)
				}
				if repl.Time <= bare.Time {
					t.Errorf("fail at %v: replicated run (%v) not slower than bare (%v)", at, repl.Time, bare.Time)
				}
				if repl.Promoted {
					promotions++
				}
			}
			t.Logf("%d of %d instants failed over", promotions, len(c.at))
			if c.failover && promotions == 0 {
				t.Error("the sweep never exercised failover")
			}
		})
	}
}

func TestDurationConstants(t *testing.T) {
	if Second != sim.Second || Millisecond != sim.Millisecond || Microsecond != sim.Microsecond {
		t.Error("duration constants drifted from sim package")
	}
}

// TestBareOption: Bare() composes with the environment options — a
// second disk, terminal input, client load — and each bare run equals
// the replicated run in everything the environment can observe.
func TestBareOption(t *testing.T) {
	cases := map[string][]Option{
		"second disk": append(fastDiskOpts(), WithWorkload(TwoDiskCopy(3, 1024))),
		"terminal": {WithWorkload(TerminalEcho()),
			WithTerminal(TerminalInput{At: Millisecond, Data: "hi" + string(rune(TerminalEOT))})},
		"client load": {WithWorkload(ServeRequests(8, 20)), WithClientLoad(ClientLoad{Clients: 4})},
	}
	for name, opts := range cases {
		t.Run(name, func(t *testing.T) {
			bare, _ := runScenario(t, append(opts, Bare())...)
			repl, _ := runScenario(t, opts...)
			if bare.Checksum != repl.Checksum || bare.Console != repl.Console || bare.NetReplies != repl.NetReplies {
				t.Errorf("bare (%#x, %q, %d reply bytes) != replicated (%#x, %q, %d reply bytes)",
					bare.Checksum, bare.Console, len(bare.NetReplies),
					repl.Checksum, repl.Console, len(repl.NetReplies))
			}
			if bare.Time >= repl.Time {
				t.Errorf("bare run (%v) not faster than replicated (%v)", bare.Time, repl.Time)
			}
		})
	}

	// A bare session has no replica set to perturb, repair or checkpoint.
	c, err := NewCluster(WithWorkload(CPUIntensive(2000)), WithBackups(2), Bare())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if snap, err := c.RunFor(10 * Microsecond); err != nil || snap.Nodes != 1 {
		t.Fatalf("bare RunFor: %d nodes, %v", snap.Nodes, err)
	}
	if err := c.FailBackup(1); err == nil || !strings.Contains(err.Error(), "no backups") {
		t.Errorf("FailBackup on a bare session: %v", err)
	}
	if _, err := c.AddBackup(); err == nil || !strings.Contains(err.Error(), "no replica set") {
		t.Errorf("AddBackup on a bare session: %v", err)
	}
	if err := c.Save(io.Discard); err == nil {
		t.Error("Save accepted a bare session")
	}
}
