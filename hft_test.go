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
		WithFailPrimaryAt(5 * Millisecond),
		WithDiskLatency(500*Microsecond, 600*Microsecond),
	}
	// The bare session ignores the failure schedule: it has no replica set.
	bare, _ := runScenario(t, append(opts, Bare())...)
	repl, _ := runScenario(t, opts...)
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
	_, err = NewCluster(work, Bare(), WithLink(nil))
	if err == nil || !strings.Contains(err.Error(), "nil LinkModel") {
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
		WithFailPrimaryAt(2 * Millisecond),
		WithFailBackupAt(1, 120*Millisecond),
	}
	bare, _ := runScenario(t, append(opts, Bare())...)
	repl, _ := runScenario(t, opts...)
	if !repl.Promoted {
		t.Fatal("no promotion under double failure")
	}
	if repl.Checksum != bare.Checksum {
		t.Errorf("double-failure checksum %#x != bare %#x", repl.Checksum, bare.Checksum)
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
