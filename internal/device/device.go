// Package device defines the generic virtual-device contract between
// the platform's environment devices and the hypervisor's shadow layer.
// The paper states its protocols (P1–P8) over environment instructions
// and interrupts in general; this package is the corresponding
// abstraction in the reproduction: every memory-mapped device — the
// dual-ported SCSI disks, the console/terminal, anything added later —
// presents the same three faces:
//
//   - a REAL register bank on the node's MMIO bus (machine.MMIOHandler,
//     wired by the platform), which only an I/O-active hypervisor or a
//     bare machine touches;
//   - a SHADOW register bank (Shadow) inside each hypervisor: the
//     virtual device the guest programs. Shadow state evolves as a
//     deterministic function of the guest's instruction stream plus the
//     completion records delivered at epoch boundaries, so it is
//     identical on every replica by construction;
//   - deterministic COMPLETION records (Completion): the environment
//     data a device interrupt carries. The I/O-active hypervisor
//     captures one when the real device raises its line (rule P1),
//     forwards it to the backups ([E, Int]), and every replica applies
//     it to its shadow at the epoch boundary (P2/P5/P6).
//
// The shadow-device equivalence argument: the guest can only observe a
// device through MMIO loads, which the hypervisor serves from shadow
// state; shadow state changes only on guest stores (deterministic) and
// on Apply of completion records (identical on every replica, because
// the records travel in the epoch stream). Therefore the guest's view
// of every device is part of the replicated state machine, and the
// Environment Instruction Assumption holds for any device wired through
// this layer — which is what lets the hypervisor treat N disks and a
// terminal exactly like the original single adapter.
package device

import "repro/internal/snapshot"

// NoLine marks a Window without an interrupt line (pure-output devices
// that never raise completions).
const NoLine uint = ^uint(0)

// Window describes one device binding on a node: where its register
// bank sits in the MMIO space and how its interrupts arrive. Windows
// are wired identically on every replica (the platform builds all
// nodes from one device table), and ID is the stable name snapshots
// and state transfers match devices by.
type Window struct {
	// ID is the stable device identifier ("disk0", "console", ...),
	// unique within a node.
	ID string
	// Base is the register bank's offset within the MMIO space.
	Base uint32
	// Size is the register bank's size in bytes.
	Size uint32
	// Line is the external interrupt line completions arrive on
	// (NoLine for devices that never interrupt).
	Line uint
	// Unsolicited marks an input device: its interrupts announce
	// environment events (arriving terminal input) rather than
	// completions of operations this hypervisor issued. The I/O-active
	// hypervisor captures them; a backup ignores its own copies (rule
	// P3) and receives the records through the epoch stream instead.
	Unsolicited bool
}

// Contains reports whether the window covers MMIO offset off.
func (w Window) Contains(off uint32) bool {
	return off >= w.Base && off-w.Base < w.Size
}

// Completion is a device-generic completion/environment record: the
// payload of one device interrupt, captured once by the I/O-active
// hypervisor and applied identically by every replica at an epoch
// boundary. It is what the replication layer's [E, Int] messages carry.
type Completion struct {
	// Status is the device status to apply at delivery.
	Status uint32
	// Addr is the guest-physical address the payload applies to
	// (DMA target); zero when Data applies to shadow state only.
	Addr uint32
	// Data is the environment payload: DMA contents for a disk read,
	// arrived bytes for terminal input.
	Data []byte
	// Seq is the input-stream watermark for unsolicited records: the
	// highest environment sequence number Data covers. Applying the
	// record consumes the real device's pending input through Seq, so
	// a replica that never captured the bytes itself still retires
	// them (consume-on-apply is idempotent on the capturing node).
	Seq uint32
}

// WireSize estimates the record's size in bytes for the link timing
// model: a fixed header plus the environment payload (an 8 KiB disk
// read becomes the paper's 9-frame Ethernet transfer).
func (c Completion) WireSize() int { return 32 + len(c.Data) }

// Effect classifies a guest store to a shadow device.
type Effect uint8

const (
	// EffectNone: the store only updated shadow register state.
	EffectNone Effect = iota
	// EffectOutput: the store carries environment output (a console
	// byte). The hypervisor forwards it to the real device when I/O is
	// active, and suppresses — but records — it on a backup (§2.2
	// case i), so a promoted backup can re-emit the failover epoch's
	// suppressed output exactly once (ordinal dedup at the device).
	EffectOutput
	// EffectStart: the store starts an I/O operation (a doorbell). The
	// hypervisor latches it outstanding (the set rule P7 covers) and,
	// when I/O is active, programs the real device from shadow state.
	EffectStart
)

// Bus is a shadow's window onto its node's REAL register bank: loads
// and stores are window-relative and word-sized, routed through the
// machine's MMIO bus exactly as a hypervisor's own accesses are.
type Bus interface {
	Load(off uint32) uint32
	Store(off uint32, v uint32)
}

// Memory is a shadow's window onto guest physical memory, for applying
// DMA payloads and capturing DMA sources.
type Memory interface {
	ReadBytes(pa uint32, n int) []byte
	WriteBytes(pa uint32, data []byte)
}

// Shadow is the guest-visible register model of one device — the part
// of the virtual machine the hypervisor interposes between the guest
// and the real hardware. Implementations must be deterministic: Load
// and Store may depend only on shadow state and their arguments, and
// environment values may enter shadow state only through Apply. Shadow
// state therefore stands still between an epoch's boundaries unless the
// guest itself stores to the device or loads a register that is not
// pure — which is what lets a hypervisor know, while its guest spins on
// a status register, what every further read of it will return.
type Shadow interface {
	// Load serves a guest MMIO load from shadow state. It may mutate
	// shadow state deterministically (e.g. popping a delivered input
	// FIFO).
	Load(off uint32) uint32

	// PureLoad reports whether Load(off) leaves shadow state untouched: a
	// status or configuration register, whose next Load returns the same
	// value until a Store or an Apply intervenes, as against a
	// read-to-pop data register. The hypervisor retires an idle guest's
	// polls ahead only on a register declared pure; when in doubt, false.
	PureLoad(off uint32) bool

	// Store applies a guest MMIO store to shadow state and classifies
	// its effect for the hypervisor.
	Store(off uint32, v uint32) Effect

	// Output forwards an EffectOutput store to the real device, tagged
	// with its ordinal for environment-side dedup. Called only by an
	// I/O-active hypervisor (mid-epoch) or at promotion when the
	// failover epoch's suppressed output is re-emitted.
	Output(bus Bus, off, v uint32, ordinal uint32)

	// Start programs the real device from shadow state (an EffectStart
	// store on an I/O-active hypervisor).
	Start(bus Bus)

	// Capture snoops the real device after its interrupt line rose and
	// builds the completion record (acknowledging the device as a real
	// driver would). ok=false means there was nothing to capture.
	Capture(bus Bus, mem Memory) (c Completion, ok bool)

	// Apply applies a delivered completion record to shadow state and
	// guest memory — identically on every replica. bus reaches the
	// real window for environment reconciliation (consume-on-apply of
	// input the record proves was captured).
	Apply(c Completion, mem Memory, bus Bus)

	// Recover returns the completion records to synthesize when this
	// node finishes a failover epoch — the device-generic rule P7:
	// an UNCERTAIN completion when an operation is outstanding, the
	// drained pending input of an unsolicited device. buffered holds
	// the completion records already awaiting delivery for this device
	// (forwarded by the dead coordinator for the failover epoch, per
	// P6) — input they cover is NOT pending, it will be applied with
	// them. uncertain reports how many of the returned records are
	// uncertain completions (P7 proper, for protocol statistics).
	Recover(bus Bus, mem Memory, outstanding bool, buffered []Completion) (recs []Completion, uncertain int)

	// CodeState writes the complete shadow register state to c or,
	// reading, replaces it with the state c decodes (state transfer and
	// checkpointing). The encoding must be deterministic and canonical:
	// a read accepts only what a write emits. A refused read may leave
	// the shadow half decoded; the hypervisor puts it back.
	CodeState(c *snapshot.Codec)
}
