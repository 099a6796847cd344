// Package harness runs the paper's experiments end to end on the
// simulated prototype: it boots the guest kernel bare (the RT baseline)
// and replicated (primary + backup under the coordination protocols),
// measures completion times, computes normalized performance, and
// regenerates every table and figure of §4.
package harness

import (
	"fmt"

	"repro/internal/guest"
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

// GuestMemBytes re-exports the per-machine RAM default (the session
// engine owns the platform wiring now).
const GuestMemBytes = session.GuestMemBytes

// RunBare executes the workload on bare hardware (the paper's baseline).
func RunBare(seed int64, w guest.Workload, disk scsi.DiskConfig) session.Result {
	return RunReplicated(session.Options{Seed: seed, Program: session.WorkloadProgram(w), Bare: true, Disk: disk})
}

// RunReplicated drives one session to completion and returns its report:
// a replicated group of one primary plus o.Backups backups (a
// t-fault-tolerant virtual machine), or the single bare machine when
// o.Bare. It preserves the harness's historical panic-on-wedge tripwire
// — build a session.Engine directly to drive, observe or perturb the
// cluster while it runs.
func RunReplicated(o session.Options) session.Result {
	e := session.New(o)
	defer e.Close()
	if err := e.RunToCompletion(nil); err != nil {
		panic(fmt.Sprintf("harness: %v", err))
	}
	r, err := e.Result()
	if err != nil {
		panic(fmt.Sprintf("harness: %v", err))
	}
	return r
}

// Measure computes normalized performance for one configuration: the
// replicated completion time over the bare completion time.
func Measure(scale Scale, kind uint32, el uint64, proto replication.Protocol, link netsim.LinkConfig) (np float64, bare, repl session.Result) {
	w := scale.workload(kind)
	bare = RunBare(1, w, scale.Disk)
	np, repl = measureAgainst(bare, scale, w, el, proto, link)
	return np, bare, repl
}

// measureAgainst runs the replicated half of a measurement against a
// precomputed bare baseline (RunBare is deterministic, so experiment
// drivers compute each workload's baseline once and share it across
// their figure points).
func measureAgainst(bare session.Result, scale Scale, w guest.Workload, el uint64, proto replication.Protocol, link netsim.LinkConfig) (float64, session.Result) {
	repl := RunReplicated(session.Options{
		Seed:        1,
		Program:     session.WorkloadProgram(w),
		Disk:        scale.Disk,
		EpochLength: el,
		Protocol:    proto,
		Link:        link,
	})
	check(bare, repl)
	return float64(repl.Time) / float64(bare.Time), repl
}
