// Package harness runs the paper's experiments end to end on the
// simulated prototype: it boots the guest kernel bare (the RT baseline)
// and replicated (primary + backup under the coordination protocols),
// measures completion times, computes normalized performance, and
// regenerates every table and figure of §4.
package harness

import (
	"fmt"

	"repro/internal/guest"
	"repro/internal/hypervisor"
	"repro/internal/machine"
	"repro/internal/netsim"
	"repro/internal/replication"
	"repro/internal/scsi"
	"repro/internal/session"
	"repro/internal/sim"
)

// Scale selects workload sizing. Normalized performance is a ratio, so
// the curves' shape is scale-free; larger scales reduce quantization
// noise at the cost of simulation time.
type Scale struct {
	Name string
	// CPUIters is the CPU workload's iteration count (paper: 1e6
	// Dhrystone iterations ≈ 4.2e8 instructions).
	CPUIters uint32
	// DiskOps is the I/O benchmarks' operation count (paper: 2048).
	DiskOps uint32
	// PreOp is the per-op compute phase in 3-instruction iterations
	// (paper-calibrated: ≈ 15,500 instructions per op at paper scale).
	PreOp uint32
	// PrivOps is the per-op privileged-instruction count on the kernel
	// I/O path (paper-calibrated: ≈ 1030).
	PrivOps uint32
	// Count is bytes per disk op (paper: 8 KiB blocks).
	Count uint32
	// Disk provides the device service times (paper: 26 ms writes,
	// 24.2 ms reads).
	Disk scsi.DiskConfig
	// Workers is the per-call worker count drivers fan this scale's
	// independent simulations across (see ForEachWorkers). Zero means
	// 1 (serial).
	Workers int
}

// forEach fans a driver's independent simulations across this scale's
// worker count.
func (s Scale) forEach(n int, fn func(i int)) { ForEachWorkers(s.Workers, n, fn) }

// QuickScale is small enough for unit tests and go-test benchmarks: the
// device times, per-op computation, privileged density and block size
// are all scaled down by 4x together, so every term of the NPW/NPR
// balance keeps its paper-calibrated ratio and the normalized
// performance lands where the paper's does.
func QuickScale() Scale {
	return Scale{
		Name:     "quick",
		CPUIters: 6000,
		DiskOps:  4,
		PreOp:    1300,
		PrivOps:  258,
		Count:    2048,
		Disk: scsi.DiskConfig{
			ReadLatency:  sim.Time(24.2 * float64(sim.Millisecond) / 4),
			WriteLatency: 26 * sim.Millisecond / 4,
		},
	}
}

// PaperScale uses the paper's device latencies, block size and per-op
// calibration with a reduced operation count (normalized performance is
// a ratio; simulating all 2048 paper operations adds nothing).
func PaperScale() Scale {
	return Scale{
		Name:     "paper",
		CPUIters: 12000,
		DiskOps:  8,
		PreOp:    5200,
		PrivOps:  1030,
		Count:    8192,
		Disk:     scsi.DiskConfig{}, // defaults = paper latencies
	}
}

// workload materializes a guest workload for this scale.
func (s Scale) workload(kind uint32) guest.Workload {
	switch kind {
	case guest.WorkloadCPU:
		return guest.CPUIntensive(s.CPUIters)
	case guest.WorkloadDiskWrite:
		w := guest.DiskWrite(s.DiskOps, s.Count)
		w.PreOp, w.PrivOps = s.PreOp, s.PrivOps
		return w
	case guest.WorkloadDiskRead:
		w := guest.DiskRead(s.DiskOps, s.Count)
		w.PreOp, w.PrivOps = s.PreOp, s.PrivOps
		return w
	}
	panic(fmt.Sprintf("harness: unknown workload kind %d", kind))
}

// RunResult reports one simulated run.
type RunResult struct {
	// Time is the workload completion time (virtual).
	Time sim.Time
	// Guest is the kernel's ABI report.
	Guest guest.Result
	// Console is the primary-side console transcript.
	Console string
	// Promoted reports whether a failover occurred.
	Promoted bool
	// PrimaryStats/BackupStats are the protocol engines' counters
	// (zero for bare runs).
	PrimaryStats replication.Stats
	BackupStats  replication.Stats
	// HVStats is the primary hypervisor's activity (zero for bare).
	HVStats hypervisor.Stats
}

// GuestMemBytes re-exports the per-machine RAM default (the session
// engine owns the platform wiring now).
const GuestMemBytes = session.GuestMemBytes

// RunBare executes the workload on bare hardware (the paper's baseline).
func RunBare(seed int64, w guest.Workload, disk scsi.DiskConfig) RunResult {
	e := session.New(session.Options{
		Seed:    seed,
		Program: session.WorkloadProgram(w),
		Bare:    true,
		Disk:    disk,
	})
	defer e.Close()
	return finish(e)
}

// ReplicatedOptions configures a replicated run.
type ReplicatedOptions struct {
	Seed        int64
	Workload    guest.Workload
	Disk        scsi.DiskConfig
	EpochLength uint64
	Protocol    replication.Protocol
	// Link configures the hypervisor channel (zero = 10 Mbps Ethernet).
	Link netsim.LinkConfig
	// FailPrimaryAt, if nonzero, failstops the primary at that virtual
	// time.
	FailPrimaryAt sim.Time
	// DetectTimeout is the backup's failure-detection timeout
	// (default 50 ms; backup i waits i x DetectTimeout).
	DetectTimeout sim.Time
	// Backups is the number of backup replicas t (default 1). The
	// resulting virtual machine is t-fault-tolerant.
	Backups int
	// FailBackupAt failstops backup i+1 at FailBackupAt[i] (0 = never).
	FailBackupAt []sim.Time
	// Machine overrides the processor configuration (TLB size/policy —
	// used by the §3.2 ablation).
	Machine machine.Config
	// NoTLBTakeover disables the hypervisor's §3.2 TLB takeover
	// (ablation: demonstrates the nondeterminism hazard).
	NoTLBTakeover bool
	// OnDivergence, when set, observes backup digest mismatches instead
	// of panicking.
	OnDivergence func(epoch uint64, primary, backup uint64)
}

// RunReplicated executes the workload on a replicated group: one primary
// plus o.Backups backups (a t-fault-tolerant virtual machine). It is a
// one-shot convenience over the session engine — build a session.Engine
// directly to drive, observe or perturb the cluster while it runs.
func RunReplicated(o ReplicatedOptions) RunResult {
	e := session.New(session.Options{
		Seed:          o.Seed,
		Program:       session.WorkloadProgram(o.Workload),
		Disk:          o.Disk,
		EpochLength:   o.EpochLength,
		Protocol:      o.Protocol,
		Link:          o.Link,
		FailPrimaryAt: o.FailPrimaryAt,
		DetectTimeout: o.DetectTimeout,
		Backups:       o.Backups,
		FailBackupAt:  o.FailBackupAt,
		Machine:       o.Machine,
		NoTLBTakeover: o.NoTLBTakeover,
		OnDivergence:  o.OnDivergence,
	})
	defer e.Close()
	return finish(e)
}

// finish drives a session to completion and converts its report,
// preserving the harness's historical panic-on-wedge tripwire.
func finish(e *session.Engine) RunResult {
	if err := e.RunToCompletion(nil); err != nil {
		panic(fmt.Sprintf("harness: %v", err))
	}
	r, err := e.Result()
	if err != nil {
		panic(fmt.Sprintf("harness: %v", err))
	}
	return RunResult{
		Time:         r.Time,
		Guest:        r.Guest,
		Console:      r.Console,
		Promoted:     r.Promoted,
		PrimaryStats: r.PrimaryStats,
		BackupStats:  r.BackupStats,
		HVStats:      r.HVStats,
	}
}

// Measure computes normalized performance for one configuration: the
// replicated completion time over the bare completion time.
func Measure(scale Scale, kind uint32, el uint64, proto replication.Protocol, link netsim.LinkConfig) (np float64, bare, repl RunResult) {
	w := scale.workload(kind)
	bare = RunBare(1, w, scale.Disk)
	np, repl = measureAgainst(bare, scale, w, el, proto, link)
	return np, bare, repl
}

// measureAgainst runs the replicated half of a measurement against a
// precomputed bare baseline (RunBare is deterministic, so experiment
// drivers compute each workload's baseline once and share it across
// their figure points).
func measureAgainst(bare RunResult, scale Scale, w guest.Workload, el uint64, proto replication.Protocol, link netsim.LinkConfig) (float64, RunResult) {
	repl := RunReplicated(ReplicatedOptions{
		Seed:        1,
		Workload:    w,
		Disk:        scale.Disk,
		EpochLength: el,
		Protocol:    proto,
		Link:        link,
	})
	if bare.Guest.Panic != 0 || repl.Guest.Panic != 0 {
		panic(fmt.Sprintf("harness: guest panic (bare %#x, repl %#x)", bare.Guest.Panic, repl.Guest.Panic))
	}
	if bare.Guest.Checksum != repl.Guest.Checksum {
		panic(fmt.Sprintf("harness: checksum mismatch bare %#x repl %#x", bare.Guest.Checksum, repl.Guest.Checksum))
	}
	return float64(repl.Time) / float64(bare.Time), repl
}
