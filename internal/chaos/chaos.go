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
// A violating schedule is automatically shrunk (delta debugging over
// the perturbation list, then coordinate reduction from exact virtual
// times to epoch-commit ordinals) until 1-minimal, and emitted as a
// replayable `hftsim -scenario` script plus the failing seed.
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

// Workloads returns the canonical shapes, in the generator's draw
// order. Sizes are quick-scale: every shape completes in well under a
// second of wall time so campaigns can run thousands of schedules.
func Workloads() []Workload {
	return []Workload{
		{Name: "cpu", Guest: hft.CPUIntensive(4000)},
		{Name: "write", Guest: hft.DiskWrite(3, 2048)},
		{Name: "read", Guest: hft.DiskRead(3, 2048)},
		{Name: "copy", Guest: hft.TwoDiskCopy(2, 2048), ExtraDisks: 1},
		{Name: "echo", Guest: hft.TerminalEcho(), Terminal: EchoScript()},
		{Name: "serve", Guest: hft.ServeRequests(24, 50), ClientLoad: ServeLoad()},
	}
}

// ParseWorkload resolves a shape by name — shared by the generator,
// the executor, and hftsim's -workload flag, so a scenario emitted
// here reconstructs the identical cluster there.
func ParseWorkload(name string) (Workload, error) {
	for _, w := range Workloads() {
		if w.Name == name {
			return w, nil
		}
	}
	return Workload{}, fmt.Errorf("chaos: unknown workload %q (have cpu, write, read, copy, echo, serve)", name)
}

// ClusterOptions materializes the public options for a replicated run
// of this shape.
func (w Workload) ClusterOptions(seed int64, epoch uint64, proto hft.Protocol, link hft.LinkModel, backups int) []hft.Option {
	opts := []hft.Option{
		hft.WithWorkload(w.Guest),
		hft.WithSeed(seed),
		hft.WithEpochLength(epoch),
		hft.WithProtocol(proto),
		hft.WithLink(link),
		hft.WithBackups(backups),
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

// baseline is what the invariants compare a perturbed replicated run
// against.
type baseline struct {
	checksum uint32
	console  string
	replies  string
	panic    uint32
	err      error
}

var (
	bareMu    sync.Mutex
	bareCache = map[bareKey]baseline{}
)

// bareBaseline runs (or recalls) the unreplicated reference execution
// for a shape: the shape's own cluster options plus hft.Bare(). Results
// are cached: a campaign executes thousands of schedules over six
// shapes.
func bareBaseline(w Workload, seed int64, epoch uint64) baseline {
	key := bareKey{w.Name, w.Guest, seed, epoch}
	bareMu.Lock()
	b, ok := bareCache[key]
	bareMu.Unlock()
	if ok {
		return b
	}

	b = runBare(w, seed, epoch)
	if b.err != nil {
		b.err = fmt.Errorf("chaos: bare baseline for %q: %w", w.Name, b.err)
	}

	bareMu.Lock()
	bareCache[key] = b
	bareMu.Unlock()
	return b
}

func runBare(w Workload, seed int64, epoch uint64) baseline {
	opts := append(w.ClusterOptions(seed, epoch, hft.ProtocolOld, hft.Ethernet10(), 1), hft.Bare())
	c, err := hft.NewCluster(opts...)
	if err != nil {
		return baseline{err: err}
	}
	defer c.Close()
	r, err := c.Wait(context.Background())
	if err != nil {
		return baseline{err: err}
	}
	return baseline{checksum: r.Checksum, console: r.Console, replies: r.NetReplies, panic: r.GuestPanic}
}

// Bare exposes the cached bare reference execution for a shape —
// hftsim's `check` scenario command compares a replayed run against
// it, turning an emitted reproduction into a self-verifying script.
// replies is the NIC reply transcript (empty for shapes without a
// client population).
func Bare(w Workload, seed int64, epoch uint64) (checksum uint32, console, replies string, err error) {
	b := bareBaseline(w, seed, epoch)
	return b.checksum, b.console, b.replies, b.err
}
