package hft

import (
	"repro/internal/guest"
	"repro/internal/machine"
	"repro/internal/netsim"
)

// This file holds what a caller supplies to the Cluster API beyond the
// built-in choices: a channel cost model (LinkParams, a plain value) and
// a guest workload (Program, the one interface).

// LinkParams is the hypervisor-to-hypervisor channel's cost model. The
// paper's two links — the prototype's 10 Mbps Ethernet and §4.3's
// 155 Mbps ATM — are Ethernet10 and ATM155; any other link is a
// literal. Zero fields take the simulator's messaging-layer defaults
// (1 KiB MTU, one control frame per message, 100 µs controller
// set-up).
//
// It mirrors netsim.LinkConfig field for field and crosses the API
// boundary by struct conversion, so a field added on one side only is a
// compile error, not a silently dropped value.
type LinkParams struct {
	// Name identifies the link in diagnostics.
	Name string
	// BitsPerSecond is the serialization bandwidth.
	BitsPerSecond int64
	// Latency is the propagation + interrupt-processing delay added
	// after serialization.
	Latency Duration
	// MTU is the maximum payload bytes per frame; larger messages are
	// segmented.
	MTU int
	// FrameOverhead is per-frame header bytes (counts against bandwidth).
	FrameOverhead int
	// PerMessageFrames is the number of extra control frames per message
	// (the paper's "+1 header").
	PerMessageFrames int
	// SetupTime is per-message controller set-up cost paid by the sender
	// regardless of size.
	SetupTime Duration
}

// Ethernet10 returns the prototype's 10 Mbps Ethernet link.
func Ethernet10() LinkParams { return LinkParams(netsim.Ethernet10("ethernet10")) }

// ATM155 returns §4.3's 155 Mbps ATM link.
func ATM155() LinkParams { return LinkParams(netsim.ATM155("atm155")) }

// LinkQuality is a live adjustment to the cluster's links — mid-run
// degradation (or repair). Zero fields leave the corresponding
// parameter unchanged. It mirrors netsim.Quality as LinkParams mirrors
// netsim.LinkConfig.
type LinkQuality struct {
	// BitsPerSecond replaces the serialization bandwidth.
	BitsPerSecond int64
	// Latency replaces the propagation delay.
	Latency Duration
	// MTU replaces the segmentation threshold.
	MTU int
	// DropNext marks the next N sends on each link direction for loss.
	DropNext int
}

// GuestMemory is a Program's window onto guest physical memory.
type GuestMemory interface {
	// Load32 reads an aligned word of guest physical memory.
	Load32(pa uint32) uint32
	// Store32 writes an aligned word of guest physical memory.
	Store32(pa uint32, v uint32)
}

// ProgramResult is a Program's guest-visible outcome.
type ProgramResult struct {
	// Checksum is the workload's self-computed result; it must be equal
	// across bare and replicated runs (determinism check).
	Checksum uint32
	// Panic is the guest's panic code (0 = clean run).
	Panic uint32
}

// Program supplies a guest boot image, boot-time configuration, and
// result extraction — the plug point for workloads beyond the paper's
// three benchmarks. A Program must be deterministic and must configure
// every replica identically; the replication layer takes care of the
// rest (that is the paper's point).
type Program interface {
	// Image returns the guest memory image and entry point.
	Image() (origin uint32, words []uint32, entry uint32)
	// Setup writes boot-time parameters into guest memory after the
	// image is loaded, once per replica.
	Setup(mem GuestMemory)
	// Result extracts the outcome after the guest halts.
	Result(mem GuestMemory) ProgramResult
}

// machineMemory adapts a simulated machine to GuestMemory.
type machineMemory struct{ m *machine.Machine }

func (mm machineMemory) Load32(pa uint32) uint32     { return mm.m.LoadPhys32(pa) }
func (mm machineMemory) Store32(pa uint32, v uint32) { mm.m.StorePhys32(pa, v) }

// programAdapter bridges a public Program into the session engine.
type programAdapter struct{ p Program }

func (a programAdapter) Image() (uint32, []uint32, uint32) { return a.p.Image() }
func (a programAdapter) Setup(m *machine.Machine)          { a.p.Setup(machineMemory{m}) }
func (a programAdapter) Result(m *machine.Machine) guest.Result {
	r := a.p.Result(machineMemory{m})
	return guest.Result{Checksum: r.Checksum, Panic: r.Panic}
}
