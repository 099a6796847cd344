// Package hypervisor implements the software layer the paper interposes
// between the (simulated) PA-lite hardware and an unmodified guest
// operating system. Following §3 of Bressoud & Schneider:
//
//   - The hypervisor owns real privilege level 0; the guest's virtual
//     privilege level 0 executes at real level 1 and virtual level 3 at
//     real level 3 (the paper's mapping, which works because HP-UX-like
//     guests use only levels 0 and 3).
//   - Privileged instructions executed by the guest trap and are
//     simulated against VIRTUAL control registers; the guest never reads
//     real machine state.
//   - Environment instructions (time-of-day reads, interval-timer loads,
//     memory-mapped I/O loads and stores) are simulated so that their
//     effect on virtual-machine state is a deterministic function of the
//     epoch structure — the Environment Instruction Assumption.
//   - The hypervisor takes over TLB management (§3.2): real TLB misses
//     are served by a hypervisor page-table walk so the guest never
//     observes the hardware TLB's replacement behaviour.
//   - Epochs are delimited with the recovery counter (§2.1): the guest
//     runs exactly EpochLength instructions between hypervisor
//     activations, and buffered interrupts are delivered only at epoch
//     boundaries.
//
// Costs are charged in simulated time using constants calibrated from the
// paper's measurements (HSim = 15.12 µs per simulated instruction, split
// ~8 µs entry/exit + ~7 µs work; 50 MIPS base processor).
package hypervisor

import (
	"fmt"

	"repro/internal/device"
	"repro/internal/free"
	"repro/internal/isa"
	"repro/internal/machine"
	"repro/internal/sim"
	"repro/internal/snapshot"
)

// The simulated-time costs of hypervisor activity, calibrated to §4.1 of
// the paper.
const (
	// instructionTime is the cost of one guest instruction, bare or
	// virtualized (the HP 9000/720 is "a 50 MIPS processor": 20 ns).
	instructionTime = 20 * sim.Nanosecond
	// trapEntryExit is the cost of entering and leaving the hypervisor
	// ("approximately 8 µsec for hypervisor entry/exit").
	trapEntryExit = 8120 * sim.Nanosecond
	// simulateWork is the cost of simulating one privileged or
	// environment instruction once inside ("7 µsec for the actual work").
	simulateWork = 7 * sim.Microsecond
	// HSim is the full cost of one hypervisor-simulated instruction
	// (entry/exit + work): the paper's 15.12 µs.
	HSim = trapEntryExit + simulateWork
	// epochLocal is the local (non-communication) part of epoch-boundary
	// processing: buffer management, timer checks, interrupt delivery.
	// The paper's hepoch of 443.59 µs additionally includes waiting for
	// acknowledgements, which in this reproduction emerges from the
	// simulated link round-trip.
	epochLocal = 20 * sim.Microsecond
	// tlbWalk is the cost of a hypervisor page-table fill (the §3.2 TLB
	// takeover); it replaces what hardware or the guest's handler would
	// have spent, so it is far below a full simulation.
	tlbWalk = 2 * sim.Microsecond
	// residentWork is the cost of re-simulating an instruction while the
	// hypervisor is already resident (Config.ResidentEmulation): no
	// entry/exit, and the decoded device window and shadow state of the
	// previous simulation are still hot, so only the access itself is
	// performed. The paper's 7 µs simulateWork is dominated by locating
	// and validating the simulated state from scratch on every trap; a
	// resident interpreter loop pays that once per burst.
	residentWork = 1 * sim.Microsecond
)

// Config describes a hypervisor instance.
type Config struct {
	// EpochLength is the number of guest instructions per epoch (the
	// paper evaluates 1K..32K; HP-UX tolerates at most 385,000).
	EpochLength uint64
	// NoTLBTakeover disables the §3.2 fix: TLB misses are reflected to
	// the guest's own handler instead of being served invisibly by the
	// hypervisor. With a nondeterministic TLB replacement policy this
	// VIOLATES the Ordinary Instruction Assumption — replicas diverge —
	// which is exactly what the paper observed on the HP 9000/720.
	// Ablation/demonstration only.
	NoTLBTakeover bool
	// AdaptiveBoundary enables output-triggered epoch boundaries: a
	// guest environment output (console write, NIC doorbell, SCSI start)
	// re-arms a countdown of cutSlack instructions, and the epoch ends
	// when it expires — instead of waiting out the full EpochLength. The
	// cut point is a pure function of the guest instruction stream and
	// the (replicated) shadow-device state, so every replica cuts at the
	// same instruction; the epoch frame carries the coordinate for
	// verification. Must be set identically on every replica.
	AdaptiveBoundary bool
	// ResidentEmulation is the output-commit engine's simulation fast
	// path: when a simulated (privileged or environment) instruction
	// retires within residentWindow guest instructions of the previous
	// one, the hypervisor is still resident — only the simulation work
	// is charged, not another entry/exit world switch. Sound under
	// output deferral because an environment output is then a buffered
	// shadow-state write (no device programming, no I/O gate), so a
	// guest copy loop against a device window batches its simulations
	// in one residency. The charge is a pure function of the guest
	// instruction stream; must be set identically on every replica.
	ResidentEmulation bool
	// PTEValid is the guest page-table-entry valid bit (fixed ABI with
	// the guest kernel; see internal/guest).
	// The low 12 bits of a PTE are: isa.TLB* permission bits | PTEValid.
}

// PTEValid is the "present" bit in guest page-table entries (bit 5,
// outside isa.TLBPermMask).
const PTEValid uint32 = 1 << 5

const (
	// chunkSize bounds how many instructions execute between
	// simulated-time syncs and interrupt polls.
	chunkSize = 256
	// cutSlack is the adaptive boundary's countdown: how many further
	// instructions may retire after an environment output before the
	// epoch is cut. The slack coalesces output bursts — a multi-word
	// console write or NIC TX fill re-arms the countdown on each store
	// (consecutive stores are a few instructions apart), so the burst
	// rides one epoch — and is tight enough not to burn simulated-poll
	// time between the last output and the boundary that ships it.
	cutSlack = 16
	// residentWindow is ResidentEmulation's residency span in guest
	// instructions.
	residentWindow = 32
)

func (c Config) withDefaults() Config {
	if c.EpochLength == 0 {
		c.EpochLength = 4096
	}
	return c
}

// Interrupt is a buffered virtual interrupt: what the primary's
// hypervisor forwards in an [E, Int] message (P1) and what both
// hypervisors deliver to their virtual machines at the end of the epoch.
// For device interrupts it carries the device-generic completion record
// (environment data and final status) so that delivery has an identical
// effect on both virtual machines.
type Interrupt struct {
	// Line is the external interrupt line (vEIRR bit) to raise.
	Line uint
	// Timer marks a virtual interval-timer interrupt synthesized at an
	// epoch boundary ("interrupts based on Tme", P2/P5/P6).
	Timer bool
	// Dev is the window base of the device this completion belongs to;
	// NoDevice for non-device interrupts.
	Dev uint32
	// Completion is the device-generic completion/environment record
	// applied to the device's shadow at delivery.
	device.Completion
	// CapturedTOD records the capturing hypervisor's clock at capture
	// time (0 = not tracked), for measuring the paper's delay(EL): the
	// time a completion waits for its epoch boundary.
	CapturedTOD uint32
}

// NoDevice marks an Interrupt not associated with a device window.
const NoDevice uint32 = ^uint32(0)

// WireSize estimates the message size in bytes for the timing model:
// a fixed header plus any environment payload (an 8 KiB disk read
// becomes the paper's 9-frame transfer on the Ethernet model).
func (i Interrupt) WireSize() int { return i.Completion.WireSize() }

// Boundary reports the state at an epoch boundary.
type Boundary struct {
	// Epoch is the epoch number that just ended.
	Epoch uint64
	// GuestInstr is the cumulative count of retired guest instructions.
	GuestInstr uint64
	// Digest is the guest register-state digest (divergence detection).
	Digest uint64
	// Halted is set when the guest executed its (virtual) HALT.
	Halted bool
	// TOD is this machine's real time-of-day at the boundary — the
	// paper's Tme value, shipped to the backup for clock resync.
	TOD uint32
}

// Stats counts hypervisor activity.
type Stats struct {
	GuestInstructions uint64
	Epochs            uint64
	PrivSimulated     uint64 // privileged instructions simulated
	EnvSimulated      uint64 // environment instructions simulated (TOD, MMIO)
	TLBFills          uint64 // hypervisor page-table walks (§3.2)
	ReflectedTraps    uint64 // traps reflected into the guest
	VIRQDelivered     uint64 // virtual external-interrupt traps delivered
	IOIssued          uint64 // doorbells forwarded to real hardware
	IOSuppressed      uint64 // doorbells suppressed (backup, case i)
	ConsoleSuppressed uint64 // console bytes suppressed (backup)
	Captured          uint64 // device completions captured (P1)
	OutputsDeferred   uint64 // output stores deferred by the commit window
	StartsDeferred    uint64 // I/O starts deferred by the commit window
	AdaptiveCuts      uint64 // epochs cut early by an output trigger
	ResidentSims      uint64 // simulations charged without a world switch
	HypervisorTime    sim.Time
	// DeliveryDelayTotal/DeliveryDelayCount accumulate the paper's
	// delay(EL): completion-interrupt capture to epoch-boundary delivery
	// (§4.2 — "interrupts from the disk are buffered by the hypervisor
	// for a longer period" as EL grows).
	DeliveryDelayTotal sim.Time
	DeliveryDelayCount uint64
}

// MeanDeliveryDelay returns the average capture-to-delivery latency.
func (s Stats) MeanDeliveryDelay() sim.Time {
	if s.DeliveryDelayCount == 0 {
		return 0
	}
	return s.DeliveryDelayTotal / sim.Time(s.DeliveryDelayCount)
}

// shadowDev binds one shadow device into the hypervisor: the window
// descriptor, the device-specific virtual register model, and the
// device-generic protocol latches the coordination rules operate on.
type shadowDev struct {
	win device.Window
	sh  device.Shadow
	// bus is the shadow's window onto the node's REAL register bank,
	// built once at attach (no per-access interface boxing).
	bus device.Bus

	// outstanding marks a started operation whose completion has not
	// yet been DELIVERED to the guest — the set P7 synthesizes
	// uncertain interrupts for at failover.
	outstanding bool
	// issuedReal marks that the outstanding op was forwarded to real
	// hardware (I/O-active side).
	issuedReal bool
	// outCount numbers this device's output stores — a deterministic
	// function of the guest instruction stream, so every replica
	// assigns the same ordinals. The environment device dedups on
	// them when a promoted backup re-emits suppressed output.
	outCount uint32
}

// suppressedOutput is one environment output a replica withheld. Two
// producers share the buffer:
//
//   - a backup suppressing output stores (§2.2 case i): dropped once the
//     coordinator's release watermark covers their epoch, re-emitted at
//     promotion through the devices' ordinal dedup (generalized rule P7
//     for output — exactly-once);
//   - an output-commit primary DEFERRING outputs and I/O starts (the
//     VMware-FT output rule): released when the epoch's frame is
//     acknowledged.
//
// Entries are appended in guest program order and tagged with the epoch
// that produced them, so release, drop and promotion flush are one walk
// over an epoch prefix (SettleOutput).
type suppressedOutput struct {
	dev     *shadowDev
	off     uint32
	val     uint32
	ordinal uint32
	// epoch is the epoch the store retired in (release/drop watermark).
	epoch uint64
	// start marks a deferred I/O start (doorbell) instead of an output
	// store: released by issuing the real operation. Backups never
	// defer starts (P7's uncertain synthesis re-drives them).
	start bool
	// at is the virtual time the output was generated (commit-latency
	// accounting on a deferring primary; zero on backups).
	at sim.Time
}

// windowBus adapts a device window on the machine's real MMIO bus to
// the device.Bus interface (window-relative word access).
type windowBus struct {
	m    *machine.Machine
	base uint32
}

func (b windowBus) Load(off uint32) uint32 {
	v, err := b.m.Bus.MMIOLoad(b.base+off, 4)
	if err != nil {
		panic(fmt.Sprintf("hypervisor: device snoop at %#x: %v", b.base+off, err))
	}
	return v
}

func (b windowBus) Store(off uint32, v uint32) {
	_ = b.m.Bus.MMIOStore(b.base+off, 4, v)
}

// Hypervisor virtualizes one machine for one guest.
type Hypervisor struct {
	M *machine.Machine

	cfg Config

	// Virtual architected state (the guest's view).
	vCR  [isa.NumCRs]uint32
	vPSW uint32

	// Virtual interval timer: armed deadline in virtual-TOD units.
	vITMRArmed    bool
	vITMRDeadline uint32

	// Virtual TOD: value = todBase + (guestInstr - epochStartInstr).
	todBase         uint32
	epochStartInstr uint64

	guestInstr uint64
	epoch      uint64
	halted     bool

	// run is the cursor of the epoch in progress (EpochStep).
	run epochRun

	// cutAt is the adaptive boundary's armed cut point (guest instruction
	// count; 0 = unarmed). Re-armed to guestInstr+cutSlack by every
	// environment output while AdaptiveBoundary is set; reset at each
	// epoch start.
	cutAt uint64

	// residentAt is the guest-instruction coordinate of the most recent
	// simulated instruction (valid when residentArmed). Drives the
	// ResidentEmulation fast path: a follow-on simulation within
	// residentWindow instructions skips the entry/exit charge. Not
	// captured by snapshots — deterministic replay reproduces it.
	residentAt    uint64
	residentArmed bool

	// ioActive: forward doorbells/console to real hardware (primary and
	// promoted backup); false = suppress (backup, §2.2 case i).
	ioActive bool

	// deferOutput: an I/O-active hypervisor under the output-commit
	// window buffers outputs and starts instead of performing them; the
	// replication layer releases them per epoch as acknowledgements land.
	deferOutput bool
	// now supplies virtual time for deferred-output latency accounting
	// (set with SetOutputDeferral; nil otherwise).
	now func() sim.Time

	// buffered holds interrupts awaiting delivery at this epoch's end
	// (the primary buffers captures per P1; the backup buffers message
	// contents per P4).
	buffered []Interrupt

	// devs is the ordered device table: every shadow device, sorted by
	// window base at attach time. The order is immutable after boot, so
	// delivery, polling and P7 scans iterate it directly — no per-epoch
	// rebuild or sort.
	devs []*shadowDev
	// lastDev is the device devAt matched last (nil: none yet), tried
	// before the table: a guest polls one device at a time. Cleared
	// wherever devs changes.
	lastDev *shadowDev

	// suppressed buffers the current epoch's suppressed environment
	// output (backup side); see suppressedOutput.
	suppressed []suppressedOutput

	// arena lends buffered's and suppressed's storage until Release.
	arena *Arena

	// OnCapture, when set (primary), is invoked as soon as a device
	// completion is captured mid-epoch — the replication layer uses it
	// to send [E, Int] to the backup (rule P1). It returns the rest of
	// that work in virtual time as a sub-step (nil: none), which EpochStep
	// runs to sim.StepDone before it polls the next device.
	OnCapture func(Interrupt) sim.StepFunc

	// OnReflect, when set, observes every trap reflected into the guest
	// (debugging and instrumentation; pc is the interrupted address).
	OnReflect func(t isa.Trap, isr, ior, pc uint32)

	// OnBeforeIO, when set, is invoked before a doorbell is forwarded to
	// real hardware. The revised protocol of §4.3 uses it: instead of
	// awaiting acknowledgements at every epoch boundary, the primary
	// awaits them here — "in order to initiate an I/O operation, the
	// primary's hypervisor is required to have received acknowledgements
	// for all messages it has sent". It returns the wait as a sub-step
	// (nil: none), which EpochStep runs to sim.StepDone before the
	// operation goes out.
	OnBeforeIO func() sim.StepFunc

	// Stop, when set, is polled during epoch execution; returning true
	// aborts the run immediately — failstop injection (the processor
	// simply ceases).
	Stop func() bool

	Stats Stats
	// stormStats counts polls retired ahead (storm.go); beside Stats, not
	// in it: nothing encoded may depend on it.
	stormStats StormStats
}

// New wraps a machine. The machine's Bus must already be wired (real
// devices); the hypervisor intercepts the guest's access to it. It is
// built over a private arena: its buffers are allocated plainly.
func New(m *machine.Machine, cfg Config) *Hypervisor { return NewIn(new(Arena), m, cfg) }

// Arena owns the hypervisors built over it (NewIn). A released
// hypervisor waits on the arena whole — with its interrupt delivery
// buffer, its withheld-output buffer and its device table, shadow-device
// records included, all emptied — and NewIn rebuilds it in place for the
// next machine the arena serves. It has one owner at a time and no lock.
type Arena struct {
	hypervisors free.List[*Hypervisor]
}

// NewIn is New over an arena.
func NewIn(a *Arena, m *machine.Machine, cfg Config) *Hypervisor {
	hv, ok := a.hypervisors.Get()
	if !ok {
		hv = new(Hypervisor)
	}
	*hv = Hypervisor{M: m, cfg: cfg.withDefaults(), arena: a,
		buffered: hv.buffered[:0], suppressed: hv.suppressed[:0], devs: hv.devs[:0]}
	return hv
}

// Release hands the hypervisor back to its arena, its buffers and device
// table cleared, for the next NewIn; a second call before that does
// nothing. Call only on teardown, once the simulation kernel is down: the
// hypervisor must not be used afterwards.
func (hv *Hypervisor) Release() {
	a := hv.arena
	if a == nil {
		return // released already
	}
	clear(hv.buffered)
	clear(hv.suppressed)
	for _, d := range hv.devs {
		*d = shadowDev{} // kept past len(devs) for AttachDevice to reuse
	}
	*hv = Hypervisor{buffered: hv.buffered[:0], suppressed: hv.suppressed[:0], devs: hv.devs[:0]}
	a.hypervisors.Put(hv)
}

// AttachDevice registers a shadow device. Devices must be attached
// before the guest boots (the table is wired identically on every
// replica and immutable afterwards); the table is kept sorted by window
// base so every protocol scan sees a fixed deterministic order.
func (hv *Hypervisor) AttachDevice(win device.Window, sh device.Shadow) {
	for _, d := range hv.devs {
		if win.Base < d.win.Base+d.win.Size && d.win.Base < win.Base+win.Size {
			panic(fmt.Sprintf("hypervisor: device %q [%#x,%#x) overlaps %q [%#x,%#x)",
				win.ID, win.Base, win.Base+win.Size, d.win.ID, d.win.Base, d.win.Base+d.win.Size))
		}
	}
	i := len(hv.devs)
	var nd *shadowDev
	hv.devs, nd = free.Next(hv.devs) // a recycled table's record, or a new one
	*nd = shadowDev{win: win, sh: sh, bus: windowBus{m: hv.M, base: win.Base}}
	for i > 0 && hv.devs[i-1].win.Base > win.Base {
		i--
	}
	copy(hv.devs[i+1:], hv.devs[i:len(hv.devs)-1])
	hv.devs[i] = nd
	hv.lastDev = nil
}

// devAt locates the shadow device covering MMIO offset off (nil when
// the offset is outside every window). Windows do not overlap, so the
// device that matched last time, when it matches, is the answer.
func (hv *Hypervisor) devAt(off uint32) *shadowDev {
	if d := hv.lastDev; d != nil && d.win.Contains(off) {
		return d
	}
	for _, d := range hv.devs {
		if d.win.Contains(off) {
			hv.lastDev = d
			return d
		}
	}
	return nil
}

// devByBase locates a shadow device by its exact window base.
func (hv *Hypervisor) devByBase(base uint32) *shadowDev {
	for _, d := range hv.devs {
		if d.win.Base == base {
			return d
		}
	}
	return nil
}

// SetIOActive switches environment output on (primary / promoted backup)
// or off (backup).
func (hv *Hypervisor) SetIOActive(active bool) { hv.ioActive = active }

// SetOutputDeferral switches the output-commit deferral mode: with a
// non-nil clock, an I/O-active hypervisor buffers environment outputs
// and I/O starts (tagged with their epoch and generation time) instead
// of performing them — the replication layer settles them with
// ReleaseOutput as epochs commit. A nil clock restores
// immediate emission.
func (hv *Hypervisor) SetOutputDeferral(clock func() sim.Time) {
	hv.deferOutput = clock != nil
	hv.now = clock
}

// clockNow reads the deferral clock (zero when none is wired).
func (hv *Hypervisor) clockNow() sim.Time {
	if hv.now == nil {
		return 0
	}
	return hv.now()
}

// OutputFate says what SettleOutput does with each withheld entry.
type OutputFate uint8

const (
	// ReleaseOutput performs the entry — output stores are emitted to the
	// real devices (with their deterministic ordinals), deferred I/O
	// starts are issued to real hardware: a deferring coordinator, once
	// the epoch's frame is acknowledged.
	ReleaseOutput OutputFate = iota
	// FlushOutput emits output stores only: a promoting backup, for every
	// epoch past the dead coordinator's release watermark — the output
	// half of the generalized rule P7. Ordinal dedup at the environment
	// devices makes the re-emission exactly-once: whatever prefix the
	// dead coordinator already performed is dropped, the rest is applied
	// in order. Deferred starts (present only in a state image
	// transferred from a deferring coordinator) are skipped: the
	// operation is still marked outstanding, so P7's uncertain synthesis
	// re-drives it through the guest's own retry.
	FlushOutput
	// DropOutput discards the entry unperformed: a following backup, once
	// an End's release watermark proves the coordinator performed it (a
	// lock-step coordinator's watermark is the epoch it just closed).
	DropOutput
)

// SettleOutput is the one walk over the withheld-output buffer: every
// entry of epochs <= through meets its fate, in guest program order, and
// leaves the buffer; entries of later epochs are retained (a promotion
// flush settles them all: through = ^uint64(0)). It returns how many
// entries were settled and the generation time of the earliest (zero
// when none). Safe to call from kernel-event context: device emission
// never sleeps.
func (hv *Hypervisor) SettleOutput(through uint64, fate OutputFate) (int, sim.Time) {
	n := 0
	var firstAt sim.Time
	for n < len(hv.suppressed) && hv.suppressed[n].epoch <= through {
		so := hv.suppressed[n]
		if n == 0 {
			firstAt = so.at
		}
		switch {
		case fate == DropOutput:
		case !so.start:
			so.dev.sh.Output(so.dev.bus, so.off, so.val, so.ordinal)
		case fate == ReleaseOutput:
			hv.Stats.IOIssued++
			so.dev.issuedReal = true
			so.dev.sh.Start(so.dev.bus)
		}
		n++
	}
	hv.dropSuppressedPrefix(n)
	return n, firstAt
}

// dropSuppressedPrefix removes the first n suppressed entries, compacting
// the tail into the reused backing array.
func (hv *Hypervisor) dropSuppressedPrefix(n int) {
	if n == 0 {
		return
	}
	rest := copy(hv.suppressed, hv.suppressed[n:])
	for i := rest; i < len(hv.suppressed); i++ {
		hv.suppressed[i] = suppressedOutput{}
	}
	hv.suppressed = hv.suppressed[:rest]
}

// IOActive reports whether environment output is enabled.
func (hv *Hypervisor) IOActive() bool { return hv.ioActive }

// Epoch returns the current epoch number (epochs completed).
func (hv *Hypervisor) Epoch() uint64 { return hv.epoch }

// GuestInstructions returns cumulative retired guest instructions.
func (hv *Hypervisor) GuestInstructions() uint64 { return hv.guestInstr }

// Halted reports whether the guest has halted.
func (hv *Hypervisor) Halted() bool { return hv.halted }

// SetTODBase resynchronizes the virtual time-of-day clock — the backup
// applies the primary's Tme value here (P5: "Tme_b := Tme_p").
func (hv *Hypervisor) SetTODBase(tod uint32) {
	hv.todBase = tod
	hv.epochStartInstr = hv.guestInstr
}

// VirtualTOD returns the guest-visible time-of-day clock: the epoch's
// base value plus instructions retired since — identical on primary and
// backup by construction.
func (hv *Hypervisor) VirtualTOD() uint32 {
	return hv.todBase + uint32(hv.guestInstr-hv.epochStartInstr)
}

// Boot initializes the guest: loads the program image, sets the virtual
// machine to begin at entry with virtual privilege level 0, real mode,
// interrupts disabled — mirroring hardware reset.
func (hv *Hypervisor) Boot(origin uint32, words []uint32, entry uint32) {
	hv.M.LoadProgram(origin, words, entry)
	hv.vPSW = 0 // vPL 0, interrupts off, real mode
	hv.applyVPSW()
}

// realPLFor maps a virtual privilege level to the real level the guest
// executes at: virtual 0 -> real 1, virtual 3 -> real 3 (the paper's
// mapping; virtual 1 and 2 map to real 2 and are unused by HP-UX-like
// guests).
func realPLFor(vpl uint32) uint32 {
	switch vpl {
	case 0:
		return 1
	case 3:
		return 3
	default:
		return 2
	}
}

// applyVPSW projects the virtual PSW onto the real machine: demoted
// privilege level, translation per the guest's virtual V bit, recovery
// counter enabled (epoch control), REAL interrupts never enabled (the
// hypervisor polls devices itself; the guest's I bit is virtual).
func (hv *Hypervisor) applyVPSW() {
	real := realPLFor(hv.vPSW & isa.PSWPLMask)
	real |= isa.PSWR
	if hv.vPSW&isa.PSWV != 0 {
		real |= isa.PSWV
	}
	hv.M.PSW = real
}

// VirtualCR reads a virtual control register as the guest would.
func (hv *Hypervisor) VirtualCR(cr isa.CR) uint32 {
	switch cr {
	case isa.CRTOD:
		return hv.VirtualTOD()
	case isa.CRCPUID:
		// Both replicas must present the SAME processor identity: the
		// virtual machine's identity is that of the primary role, not
		// the physical chip.
		return 1
	default:
		return hv.vCR[cr]
	}
}

// writeVirtualCR writes a virtual control register with the same special
// semantics the hardware applies (EIRR write-1-to-clear, read-only TOD).
func (hv *Hypervisor) writeVirtualCR(cr isa.CR, v uint32) {
	switch cr {
	case isa.CREIRR:
		hv.vCR[cr] &^= v
	case isa.CRTOD, isa.CRCPUID:
		// read-only
	case isa.CRITMR:
		// Arm the virtual interval timer: it expires when the virtual
		// TOD advances past now+v. Zero disarms.
		if v == 0 {
			hv.vITMRArmed = false
		} else {
			hv.vITMRArmed = true
			hv.vITMRDeadline = hv.VirtualTOD() + v
		}
		hv.vCR[cr] = v
	default:
		hv.vCR[cr] = v
	}
}

// deliverVirtualTrap reflects a trap into the guest exactly as hardware
// would: saves the VIRTUAL PSW and PC, demotes the virtual machine to
// virtual PL 0 with interrupts/translation/recovery off, and vectors
// through the guest's virtual IVA.
func (hv *Hypervisor) deliverVirtualTrap(t isa.Trap, isr, ior uint32) {
	hv.Stats.ReflectedTraps++
	if hv.OnReflect != nil {
		hv.OnReflect(t, isr, ior, hv.M.PC)
	}
	hv.vCR[isa.CRIPSW] = hv.vPSW
	hv.vCR[isa.CRIIA] = hv.M.PC
	hv.vCR[isa.CRISR] = isr
	hv.vCR[isa.CRIOR] = ior
	hv.vPSW &^= isa.PSWPLMask | isa.PSWI | isa.PSWV | isa.PSWR
	hv.applyVPSW()
	hv.M.PC = hv.vCR[isa.CRIVA] + uint32(t)*isa.VectorStride
}

// checkVIRQ delivers a virtual external-interrupt trap if the guest has
// interrupts enabled and unmasked bits pending. Deterministic: depends
// only on virtual state.
func (hv *Hypervisor) checkVIRQ() {
	if hv.vPSW&isa.PSWI == 0 {
		return
	}
	pending := hv.vCR[isa.CREIRR] & hv.vCR[isa.CREIEM]
	if pending == 0 {
		return
	}
	hv.Stats.VIRQDelivered++
	hv.deliverVirtualTrap(isa.TrapExtIntr, pending, 0)
}

// Buffered returns the interrupts currently buffered for delivery at the
// end of this epoch (the replication layer snapshots these on the
// primary for bookkeeping; the backup fills them from messages).
func (hv *Hypervisor) Buffered() []Interrupt { return hv.buffered }

// BufferInterrupt appends to the delivery buffer (backup side, rule P4).
func (hv *Hypervisor) BufferInterrupt(i Interrupt) {
	hv.buffered = append(hv.buffered, i)
}

// NoteTimerDelivered disarms the virtual interval timer without
// generating an interrupt. A backup replaying a verbatim delivery list
// (which already contains the primary's timer interrupt) uses this to
// keep its virtual timer state consistent without double-delivering.
func (hv *Hypervisor) NoteTimerDelivered() { hv.vITMRArmed = false }

// TimerInterruptsDue implements "adds to buffer any interrupts based on
// Tme" (P2/P5/P6): given the epoch's closing TOD value, it buffers a
// virtual interval-timer interrupt if the armed deadline has passed.
// Both sides call it with the SAME tod value, so both buffer the same
// set.
func (hv *Hypervisor) TimerInterruptsDue(tod uint32) {
	if !hv.vITMRArmed {
		return
	}
	// Wraparound-safe comparison.
	if int32(tod-hv.vITMRDeadline) < 0 {
		return
	}
	hv.vITMRArmed = false
	hv.buffered = append(hv.buffered, Interrupt{Line: 0, Timer: true, Dev: NoDevice})
}

// DeliverBuffered delivers every buffered interrupt to the virtual
// machine: applies device completion records to the shadow devices (and
// their payloads to guest memory), raises virtual EIRR lines, and (if
// the guest allows) vectors the guest through its interrupt handler.
// Runs at epoch boundaries only (P2/P5/P6). The staging buffer is
// reused across epochs, so the per-epoch delivery path allocates
// nothing.
func (hv *Hypervisor) DeliverBuffered() {
	ints := hv.buffered
	hv.buffered = nil
	now := hv.M.TOD()
	for _, i := range ints {
		if i.CapturedTOD != 0 {
			// delay(EL) accounting, in real time (TOD ticks are cycles).
			hv.Stats.DeliveryDelayTotal += sim.Time(now-i.CapturedTOD) * 20 * sim.Nanosecond
			hv.Stats.DeliveryDelayCount++
		}
		if i.Dev != NoDevice {
			if d := hv.devByBase(i.Dev); d != nil {
				d.sh.Apply(i.Completion, hv.M, d.bus)
				d.outstanding = false
				d.issuedReal = false
			}
		}
		hv.vCR[isa.CREIRR] |= 1 << (i.Line & 31)
	}
	hv.checkVIRQ()
	// Hand the backing array back for the next epoch, dropping payload
	// references (DMA data) so consumed interrupts are not pinned. If a
	// delivery side effect buffered new interrupts, keep those instead.
	for i := range ints {
		ints[i] = Interrupt{}
	}
	if hv.buffered == nil {
		hv.buffered = ints[:0]
	}
}

// OutstandingUncertain implements the device-generic rule P7 at
// failover: every device contributes the completion records the
// promoted virtual machine must see — an UNCERTAIN completion for an
// outstanding I/O operation (the guest's driver will retry, which IO2
// permits), the drained pending input of an unsolicited device (input
// the environment delivered but no replica consumed). The returned
// interrupts have been buffered for delivery; uncertain counts the P7
// uncertain completions among them.
func (hv *Hypervisor) OutstandingUncertain() (out []Interrupt, uncertain int) {
	for _, d := range hv.devs {
		// Records the dead coordinator forwarded for the failover epoch
		// are already awaiting delivery (P6); their environment input is
		// not pending — Recover must not capture it a second time.
		var pending []device.Completion
		for _, i := range hv.buffered {
			if i.Dev == d.win.Base {
				pending = append(pending, i.Completion)
			}
		}
		recs, unc := d.sh.Recover(d.bus, hv.M, d.outstanding, pending)
		uncertain += unc
		for _, c := range recs {
			i := Interrupt{Line: d.win.Line, Dev: d.win.Base, Completion: c}
			hv.buffered = append(hv.buffered, i)
			out = append(out, i)
		}
	}
	return out, uncertain
}

// Digest returns a divergence-detection digest of the guest-visible
// state: machine registers/PC plus virtual PSW and key virtual CRs, as
// further lanes of the machine digest's word hash — so, like a machine
// field, any one of them that differs always changes it.
func (hv *Hypervisor) Digest() uint64 {
	v := &hv.vCR
	h := hv.M.Digest()
	for _, w := range [...]uint64{
		uint64(hv.vPSW) | uint64(v[isa.CRIVA])<<32,
		uint64(v[isa.CREIEM]) | uint64(v[isa.CREIRR])<<32,
		uint64(v[isa.CRIIA]),
	} {
		h = snapshot.Mix(h, w)
	}
	return h
}

func (hv *Hypervisor) String() string {
	return fmt.Sprintf("hv{epoch=%d instr=%d pc=%#x vpsw=%#x}",
		hv.epoch, hv.guestInstr, hv.M.PC, hv.vPSW)
}
