// Package chaos is the property-based campaign driver: it generates
// seeded random perturbation schedules over the public Cluster API,
// executes them at quick scale, and checks every run against the
// invariants the paper's protocol promises regardless of what the
// environment does to the replica set:
//
//  1. Digest — the replicated run's guest checksum equals the bare
//     (unreplicated) run of the same workload: replication is
//     transparent to the computation (§2's whole argument).
//  2. Output — the environment-visible console transcript equals the
//     bare run's byte for byte: output commit is exactly-once, even
//     across promotions and retransmissions (§2.2 case i).
//  3. Progress — the session never wedges: virtual time keeps
//     advancing until the workload completes (bounded by the session
//     watchdogs; a stall names the blocked process).
//  4. Snapshot — a Save/Restore round trip mid-run is byte-identical:
//     re-saving the restored session reproduces the checkpoint
//     exactly (the determinism contract, applied to itself).
//  5. Service — when the workload is a network service under client
//     load, the NIC's reply transcript equals the bare run's byte for
//     byte and every client request is answered exactly once: the
//     client population cannot distinguish the replicated service
//     from a single machine, whatever the schedule did to it.
//
// Compare and Check are the one oracle for invariants 1, 2 and 5: every
// comparison of a run against its bare baseline — the campaign's,
// hftsim's, hftbench's — goes through them. Bare is the cached bare run
// the campaign and hftsim compare against.
//
// A violating schedule is automatically shrunk (delta debugging over
// the perturbation list, then coordinate reduction from exact virtual
// times to epoch-commit ordinals) until 1-minimal, and emitted as a
// replayable `hftsim -scenario` script plus the failing seed. A script
// is a schedule's text form: Scenario emits it, ParseScenario parses
// it back, and hftsim runs what it parsed through Execute, so a replay
// is the recorded run.
package chaos

import (
	"context"
	"fmt"
	"sync"

	hft "repro"
)

// Workload names the canonical quick-scale workload shapes the
// generator draws from. Each shape fixes the guest benchmark AND its
// device/terminal configuration, so a name + seed + epoch length fully
// determines a run — which is what makes emitted scenarios replayable.
type Workload struct {
	// Name is the shape's identifier ("cpu", "write", "read", "copy",
	// "echo", "serve") — also hftsim's -workload vocabulary.
	Name string
	// Guest is the benchmark program.
	Guest hft.Workload
	// ExtraDisks is the number of additional shared disks the platform
	// must carry (TwoDiskCopy needs one).
	ExtraDisks int
	// Terminal is the scripted console input (TerminalEcho needs a
	// script ending in TerminalEOT).
	Terminal []hft.TerminalInput
	// ClientLoad is the simulated client population (ServeRequests
	// needs one; the request count derives from the guest's op count).
	ClientLoad *hft.ClientLoad
}

// EchoScript is the canonical TerminalEcho input: two bursts, the
// second terminated by EOT so the guest halts. hftsim uses the same
// script for -workload echo, so emitted scenarios replay identically.
func EchoScript() []hft.TerminalInput {
	return []hft.TerminalInput{
		{At: 1 * hft.Millisecond, Data: "chaos"},
		{At: 2 * hft.Millisecond, Data: "run" + string(rune(hft.TerminalEOT))},
	}
}

// ServeLoad is the canonical client population for the serve shape:
// eight connections, arrivals spread wide enough that perturbation
// coordinates land mid-load, and the default (2 ms) retransmission
// timeout — far below the replicated service's healthy latency, so
// every schedule hammers the NIC's receiver-side dedup with live
// retransmissions. hftsim uses the same population for -workload
// serve, so emitted scenarios replay identically.
func ServeLoad() *hft.ClientLoad {
	return &hft.ClientLoad{Clients: 8, MeanGap: 500 * hft.Microsecond}
}

// canonical holds each shape's quick-scale sizes, in the generator's
// draw order: every shape completes in well under a second of wall
// time so campaigns can run thousands of schedules.
var canonical = []struct {
	name              string
	iters, ops, count uint32
}{
	{name: "cpu", iters: 4000},
	{name: "write", ops: 3, count: 2048},
	{name: "read", ops: 3, count: 2048},
	{name: "copy", ops: 2, count: 2048},
	{name: "echo"},
	{name: "serve", ops: 24},
}

// Workloads returns the canonical shapes, in the generator's draw
// order.
func Workloads() []Workload {
	out := make([]Workload, len(canonical))
	for i, c := range canonical {
		out[i], _ = Shape(c.name, c.iters, c.ops, c.count)
	}
	return out
}

// Shape builds the named shape at the given sizes: iters sizes cpu,
// ops and count the disk shapes, ops serve's request stream; echo has
// none. Workloads is Shape at the canonical sizes, and hftsim's
// -workload builds through it too, so a scenario emitted here
// reconstructs the identical cluster there.
func Shape(name string, iters, ops, count uint32) (Workload, error) {
	w := Workload{Name: name}
	switch name {
	case "cpu":
		w.Guest = hft.CPUIntensive(iters)
	case "write":
		w.Guest = hft.DiskWrite(ops, count)
	case "read":
		w.Guest = hft.DiskRead(ops, count)
	case "copy":
		w.Guest, w.ExtraDisks = hft.TwoDiskCopy(ops, count), 1
	case "echo":
		w.Guest, w.Terminal = hft.TerminalEcho(), EchoScript()
	case "serve":
		// The per-request compute and the client population are
		// canonical at every size.
		w.Guest, w.ClientLoad = hft.ServeRequests(ops, 50), ServeLoad()
	default:
		return Workload{}, fmt.Errorf("chaos: unknown workload %q (have cpu, write, read, copy, echo, serve)", name)
	}
	return w, nil
}

// ParseWorkload resolves a canonical shape by name — shared by the
// generator and the executor.
func ParseWorkload(name string) (Workload, error) {
	for _, c := range canonical {
		if c.name == name {
			return Shape(c.name, c.iters, c.ops, c.count)
		}
	}
	return Shape(name, 0, 0, 0) // not a shape: Shape names the error
}

// ClusterOptions materializes the public options for the schedule's
// replicated run of shape w (s.Shape()) — the cluster Execute builds,
// and hftsim's one-shot mode.
func (s Schedule) ClusterOptions(w Workload) []hft.Option {
	opts := []hft.Option{
		hft.WithWorkload(w.Guest),
		hft.WithSeed(s.Seed),
		hft.WithEpochLength(s.Epoch),
		hft.WithProtocol(s.Protocol),
		hft.WithLink(s.LinkParams()),
		hft.WithBackups(s.Backups),
	}
	for i := 0; i < w.ExtraDisks; i++ {
		opts = append(opts, hft.WithDisk(hft.DiskSpec{}))
	}
	if len(w.Terminal) > 0 {
		opts = append(opts, hft.WithTerminal(w.Terminal...))
	}
	if w.ClientLoad != nil {
		opts = append(opts, hft.WithClientLoad(*w.ClientLoad))
	}
	if s.Window > 0 {
		opts = append(opts, hft.WithOutputCommit(hft.OutputCommit{Window: s.Window, Adaptive: s.Adaptive}))
	}
	return opts
}

// bareKey identifies a bare baseline: the shape's guest benchmark (a
// name alone does not — hftsim builds "cpu" at any iteration count),
// seed and epoch length. Bare runs see no network and no failures, so
// the protocol/link/backups axes are irrelevant.
type bareKey struct {
	workload string
	guest    hft.Workload
	seed     int64
	epoch    uint64
}

// bareRun is one cached baseline.
type bareRun struct {
	res hft.Result
	err error
}

var (
	bareMu    sync.Mutex
	bareCache = map[bareKey]bareRun{}
)

// Bare runs (or recalls) the unreplicated reference execution for a
// shape: the shape's own cluster options plus hft.Bare(). Results are
// cached: a campaign executes thousands of schedules over six shapes,
// and hftsim takes every bare run it prints or checks from here.
func Bare(w Workload, seed int64, epoch uint64) (hft.Result, error) {
	key := bareKey{w.Name, w.Guest, seed, epoch}
	bareMu.Lock()
	b, ok := bareCache[key]
	bareMu.Unlock()
	if ok {
		return b.res, b.err
	}

	b.res, b.err = runBare(w, seed, epoch)
	if b.err != nil {
		b.err = fmt.Errorf("chaos: bare baseline for %q: %w", w.Name, b.err)
	}

	bareMu.Lock()
	bareCache[key] = b
	bareMu.Unlock()
	return b.res, b.err
}

func runBare(w Workload, seed int64, epoch uint64) (hft.Result, error) {
	s := Schedule{Seed: seed, Epoch: epoch, Protocol: hft.ProtocolOld, Link: "ethernet", Backups: 1}
	c, err := hft.NewCluster(append(s.ClusterOptions(w), hft.Bare())...)
	if err != nil {
		return hft.Result{}, err
	}
	defer c.Close()
	return c.Wait(context.Background())
}
