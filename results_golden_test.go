package hft

import (
	"encoding/json"
	"fmt"
	"os"
	"testing"
)

// goldenCase is one pinned configuration: its inputs, and the outputs
// recorded on the pre-Cluster one-shot implementation. The file is
// frozen, never regenerated — that its numbers predate the session
// engine, the device bus, the boundary-engine collapse and COW RAM is
// their point: every redesign since has had to reproduce them.
type goldenCase struct {
	Name string `json:"name"`

	Workload string  `json:"workload"`
	Iters    uint32  `json:"iters,omitempty"`
	Ops      uint32  `json:"ops,omitempty"`
	Count    uint32  `json:"count,omitempty"`
	Epoch    uint64  `json:"epoch"`
	Protocol string  `json:"protocol"`
	Link     string  `json:"link"`
	Seed     int64   `json:"seed,omitempty"`
	FailAtNS int64   `json:"fail_at_ns,omitempty"`
	ReadLat  int64   `json:"read_lat_ns,omitempty"`
	WriteLat int64   `json:"write_lat_ns,omitempty"`
	Backups  int     `json:"backups,omitempty"`
	FailBkNS []int64 `json:"fail_backup_ns,omitempty"`

	BareTimeNS   int64  `json:"bare_time_ns"`
	BareChecksum uint32 `json:"bare_checksum"`
	BareConsole  string `json:"bare_console"`
	ReplTimeNS   int64  `json:"repl_time_ns"`
	ReplChecksum uint32 `json:"repl_checksum"`
	ReplConsole  string `json:"repl_console"`
	Promoted     bool   `json:"promoted"`
	Divergences  uint64 `json:"divergences"`
	Messages     uint64 `json:"messages"`
	Uncertain    uint64 `json:"uncertain"`
	NP           string `json:"np"`
}

// options builds the case's replicated configuration; append Bare()
// for its baseline. The failure times are not options: failures()
// lists them for the run to inject live.
func (g goldenCase) options() []Option {
	var w Workload
	switch g.Workload {
	case "cpu":
		w = CPUIntensive(g.Iters)
	case "write":
		w = DiskWrite(g.Ops, g.Count)
	case "read":
		w = DiskRead(g.Ops, g.Count)
	default:
		panic("unknown workload " + g.Workload)
	}
	link := Ethernet10()
	if g.Link == "atm155" {
		link = ATM155()
	}
	opts := []Option{
		WithWorkload(w),
		WithEpochLength(g.Epoch),
		WithLink(link),
		WithDiskLatency(Duration(g.ReadLat), Duration(g.WriteLat)),
	}
	if g.Protocol == "new" {
		opts = append(opts, WithProtocol(ProtocolNew))
	}
	if g.Seed != 0 {
		opts = append(opts, WithSeed(g.Seed))
	}
	if g.Backups != 0 {
		opts = append(opts, WithBackups(g.Backups))
	}
	return opts
}

// failures lists the case's failstops: the primary's, then the
// backups'. Every frozen case fails them in that order in time.
func (g goldenCase) failures() []failure {
	var fs []failure
	if g.FailAtNS != 0 {
		fs = append(fs, failure{0, Duration(g.FailAtNS)})
	}
	for i, ns := range g.FailBkNS {
		fs = append(fs, failure{i + 1, Duration(ns)})
	}
	return fs
}

func loadGoldens(t *testing.T) []goldenCase {
	t.Helper()
	raw, err := os.ReadFile("testdata/results.golden.json")
	if err != nil {
		t.Fatalf("reading goldens (frozen; restore the file from git, do not regenerate): %v", err)
	}
	var cases []goldenCase
	if err := json.Unmarshal(raw, &cases); err != nil {
		t.Fatalf("decoding goldens: %v", err)
	}
	if len(cases) == 0 {
		t.Fatal("empty golden file")
	}
	return cases
}

// TestBackCompatDifferential asserts today's sessions stay backward
// compatible with the frozen result goldens: Bare() and replicated
// sessions, run through Cluster.Wait, reproduce exactly the recorded
// Time, Checksum, Console, Promoted, MessagesSent, UncertainSynthesized
// and normalized performance, across both protocols, both links, a
// failover run and a double-failure run.
func TestBackCompatDifferential(t *testing.T) {
	for _, g := range loadGoldens(t) {
		t.Run(g.Name, func(t *testing.T) {
			bare, _ := runScenario(t, append(g.options(), Bare())...)
			if int64(bare.Time) != g.BareTimeNS || bare.Checksum != g.BareChecksum || bare.Console != g.BareConsole {
				t.Errorf("bare drifted: time %d/%d checksum %#x/%#x console %q/%q",
					bare.Time, g.BareTimeNS, bare.Checksum, g.BareChecksum, bare.Console, g.BareConsole)
			}
			repl, _ := runFailing(t, g.failures(), g.options()...)
			if int64(repl.Time) != g.ReplTimeNS {
				t.Errorf("replicated time drifted: %d != golden %d", repl.Time, g.ReplTimeNS)
			}
			if repl.Checksum != g.ReplChecksum || repl.Console != g.ReplConsole {
				t.Errorf("replicated result drifted: checksum %#x/%#x console %q/%q",
					repl.Checksum, g.ReplChecksum, repl.Console, g.ReplConsole)
			}
			if repl.Promoted != g.Promoted || repl.Divergences != g.Divergences ||
				repl.MessagesSent != g.Messages || repl.UncertainSynthesized != g.Uncertain {
				t.Errorf("protocol stats drifted: promoted %v/%v div %d/%d msgs %d/%d unc %d/%d",
					repl.Promoted, g.Promoted, repl.Divergences, g.Divergences,
					repl.MessagesSent, g.Messages, repl.UncertainSynthesized, g.Uncertain)
			}
			if got := fmt.Sprintf("%.17g", float64(repl.Time)/float64(bare.Time)); got != g.NP {
				t.Errorf("np drifted: %s != golden %s", got, g.NP)
			}
		})
	}
}

// TestGoldenSlicedSessionDifferential drives each golden configuration
// through a live Cluster advanced in small bounded slices — the
// session-mode execution path — and asserts the terminal result is
// byte-identical to the one-shot golden. Slicing must be invisible.
func TestGoldenSlicedSessionDifferential(t *testing.T) {
	for _, g := range loadGoldens(t) {
		t.Run(g.Name, func(t *testing.T) {
			c, err := NewCluster(g.options()...)
			if err != nil {
				t.Fatal(err)
			}
			defer c.Close()
			fails := g.failures()
			for !c.Done() {
				// Slices end at each failure instant too.
				step := 3 * Millisecond
				if len(fails) > 0 {
					step = min(step, fails[0].at-c.Now())
				}
				if _, err := c.RunFor(step); err != nil {
					t.Fatal(err)
				}
				if len(fails) > 0 && c.Now() == fails[0].at {
					fails[0].inject(t, c)
					fails = fails[1:]
				}
				if c.Now() > 100*Second {
					t.Fatal("sliced run did not finish")
				}
			}
			res, err := c.Result()
			if err != nil {
				t.Fatal(err)
			}
			if int64(res.Time) != g.ReplTimeNS || res.Checksum != g.ReplChecksum ||
				res.Console != g.ReplConsole || res.Promoted != g.Promoted ||
				res.MessagesSent != g.Messages || res.UncertainSynthesized != g.Uncertain {
				t.Errorf("sliced session drifted from golden: time %d/%d checksum %#x/%#x promoted %v/%v msgs %d/%d",
					res.Time, g.ReplTimeNS, res.Checksum, g.ReplChecksum, res.Promoted, g.Promoted,
					res.MessagesSent, g.Messages)
			}
		})
	}
}
