// Package hft is a reproduction of "Hypervisor-based Fault-tolerance"
// (Bressoud & Schneider, SOSP 1995) as a self-contained Go library.
//
// The package simulates the paper's prototype: two PA-RISC-like
// processors (PA-lite, interpreted deterministically), each under a
// hypervisor augmented with the paper's replica-coordination protocols
// (rules P1–P7 and the §4.3 revision), sharing a dual-ported SCSI disk
// and connected by a modelled 10 Mbps Ethernet (or 155 Mbps ATM) link.
// An unmodified guest kernel — written in PA-lite assembly — runs the
// paper's workloads either bare (the baseline) or replicated.
//
// # Sessions
//
// The primary surface is the Cluster: a long-lived replicated virtual
// machine that boots lazily, advances under caller control, accepts
// live perturbations mid-run, and exposes snapshots and an event
// stream:
//
//	c, _ := hft.NewCluster(hft.WithWorkload(hft.CPUIntensive(20000)))
//	defer c.Close()
//	c.RunFor(20 * hft.Millisecond)
//	c.FailPrimary()                       // failstop, live
//	res, _ := c.Wait(context.Background()) // backup finishes the workload
//
// A caller supplies two things beyond the built-in choices: the link,
// a LinkParams value (Ethernet10 and ATM155 are the paper's two), and a
// Program, the one interface, for guest workloads beyond the paper's
// three benchmarks.
//
// # Recovery and reintegration
//
// Failures are injected live: Cluster.FailPrimary and
// Cluster.FailBackup failstop a processor at the current virtual time,
// so a failure at time t is RunFor(t) followed by FailPrimary. The
// backup detects the failstop, finishes the failover epoch, synthesizes
// uncertain interrupts for outstanding I/O (rule P7) and takes over
// without the environment noticing anything but a device retry. After
// a failover the cluster runs unprotected until Cluster.AddBackup
// reintegrates a new backup by live state transfer over the simulated
// link — the repair half of the paper's §5 story. Sessions checkpoint
// with Cluster.Save and resume bit-identically with Restore.
//
// # The bare baseline
//
// The paper's figure of merit is N'/N: the replicated run's completion
// time over an unreplicated run's. Bare() turns a session into that
// single-machine baseline — same workload, disks, terminal input and
// client load, no replica set:
//
//	opts := []hft.Option{hft.WithWorkload(hft.CPUIntensive(10000)), hft.WithEpochLength(4096)}
//	repl, _ := hft.NewCluster(opts...)
//	bare, _ := hft.NewCluster(append(opts, hft.Bare())...)
//	// repl.Wait(ctx).Time / bare.Wait(ctx).Time ≈ 6.5: the paper's
//	// Figure 2 at 4K-instruction epochs.
package hft

import (
	"repro/internal/guest"
	"repro/internal/replication"
	"repro/internal/sim"
)

// Protocol selects the replica-coordination variant.
type Protocol = replication.Protocol

// Protocol variants (§2 vs §4.3 of the paper).
const (
	// ProtocolOld awaits acknowledgements at every epoch boundary (P2).
	ProtocolOld = replication.ProtocolOld
	// ProtocolNew awaits acknowledgements only before I/O operations.
	ProtocolNew = replication.ProtocolNew
)

// Workload describes a guest benchmark; construct with CPUIntensive,
// DiskRead or DiskWrite.
type Workload = guest.Workload

// CPUIntensive is §4.1's workload: a Dhrystone-like loop of the given
// iteration count (~35 instructions each).
func CPUIntensive(iters uint32) Workload { return guest.CPUIntensive(iters) }

// DiskWrite is §4.2's write benchmark: ops random-block writes of count
// bytes, each awaited before the next. The per-operation computation
// phase and privileged-instruction density are paper-calibrated.
func DiskWrite(ops, count uint32) Workload {
	w := guest.DiskWrite(ops, count)
	w.PreOp, w.PrivOps = 5200, 1030
	return w
}

// DiskRead is §4.2's read benchmark.
func DiskRead(ops, count uint32) Workload {
	w := guest.DiskRead(ops, count)
	w.PreOp, w.PrivOps = 5200, 1030
	return w
}

// TwoDiskCopy is the multi-disk benchmark the generic device layer
// enables: per operation the guest generates a block, writes it to
// disk 0, reads it back, and copies it to disk 1 — two adapters, one
// outstanding operation at a time. Requires WithDisk (the cluster must
// carry a second disk).
func TwoDiskCopy(ops, count uint32) Workload { return guest.TwoDiskCopy(ops, count) }

// ServeRequests is the network-service benchmark: the guest polls the
// cluster's NIC for client request frames, checksums each payload,
// spends work iterations of a per-request compute phase (the service's
// application work), and transmits a [request-id, checksum] reply —
// exactly once, in request order, whatever fails over underneath.
// Requires WithClientLoad, which delivers the requests and measures
// what the clients observe (ServiceLatencies, ServiceBlackout). The
// reply transcript (Result.NetReplies) of a replicated run equals the
// bare run's byte for byte.
func ServeRequests(requests, work uint32) Workload { return guest.ServeRequests(requests, work) }

// TerminalEcho is the terminal-input benchmark: the guest consumes the
// console's scripted input (WithTerminal) and echoes every byte back,
// halting on TerminalEOT. Under replication, input reaches the guest as
// §2 interrupts at epoch boundaries; transcripts equal bare runs byte
// for byte, including across failovers.
func TerminalEcho() Workload { return guest.TerminalEcho() }

// Duration re-exports the simulated time unit (nanoseconds).
type Duration = sim.Time

// Convenient durations.
const (
	Microsecond = sim.Microsecond
	Millisecond = sim.Millisecond
	Second      = sim.Second
)

// Result reports a run.
type Result struct {
	// Time is the virtual completion time.
	Time sim.Time
	// Checksum is the guest workload's self-computed result (equal
	// between bare and replicated runs of the same workload).
	Checksum uint32
	// Console is the environment-visible console transcript.
	Console string
	// Promoted reports whether the backup took over.
	Promoted bool
	// Divergences counts state-digest mismatches detected by every
	// backup (always 0 unless the deterministic-replay machinery is
	// broken).
	Divergences uint64
	// MessagesSent counts the protocol messages node 0 sent, the
	// original primary's share only (Snapshot.MessagesSent sums every
	// replica).
	MessagesSent uint64
	// UncertainSynthesized counts the uncertain interrupts every
	// promoted backup synthesized for outstanding I/O (rule P7).
	UncertainSynthesized uint64
	// GuestPanic is the guest kernel's panic code (0 = clean run).
	GuestPanic uint32
	// NetReplies is the network service's reply transcript — every
	// frame the guest emitted through the NIC, exactly once, in order
	// (empty without a NIC). Replicated runs match bare runs byte for
	// byte, including across failovers and reintegrations.
	NetReplies string
}
