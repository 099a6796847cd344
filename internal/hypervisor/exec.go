package hypervisor

import (
	"fmt"

	"repro/internal/device"
	"repro/internal/isa"
	"repro/internal/machine"
	"repro/internal/sim"
)

// An epoch executes exactly cfg.EpochLength guest instructions (or fewer
// if the guest halts), charging simulated time for instruction execution
// and hypervisor activity, and capturing device interrupts mid-epoch. It
// is a step API for the process driving the machine: BeginEpoch, then
// EpochStep as that process's step until it answers sim.StepDone, then
// EndEpoch for the epoch-boundary report. The caller (replication layer)
// then performs the boundary protocol: Tme exchange, TimerInterruptsDue,
// DeliverBuffered, and advances to the next epoch.
//
// Under Config.AdaptiveBoundary a guest environment output arms an early
// cut cutSlack instructions past the triggering store; the epoch then
// ends at that coordinate instead of the full EpochLength. The cut point
// is a pure function of the guest instruction stream and shadow-device
// state, so every replica running the same epoch chooses the same
// boundary; Boundary.GuestInstr carries the coordinate for cross-replica
// verification.

// BeginEpoch starts the next epoch: EpochStep runs it.
func (hv *Hypervisor) BeginEpoch() {
	hv.run = epochRun{target: hv.guestInstr + hv.cfg.EpochLength}
	hv.cutAt = 0 // disarm: cuts never cross an epoch boundary
}

// EndEpoch closes the epoch EpochStep has finished and returns its
// boundary report.
func (hv *Hypervisor) EndEpoch() Boundary {
	if hv.cutAt != 0 && hv.cutAt < hv.run.target && hv.guestInstr >= hv.cutAt {
		hv.Stats.AdaptiveCuts++
	}
	hv.epoch++
	hv.Stats.Epochs++
	return Boundary{
		Epoch:      hv.epoch - 1,
		GuestInstr: hv.guestInstr,
		Digest:     hv.Digest(),
		Halted:     hv.halted,
		TOD:        hv.M.TOD(),
	}
}

// epochRun is the cursor of the epoch in progress: where EpochStep
// resumes after the charge it last returned. Not captured by snapshots:
// a restored hypervisor starts at an epoch boundary.
type epochRun struct {
	// target is the guest-instruction coordinate of the full-length
	// boundary (an armed output cut may end the epoch sooner).
	target uint64
	phase  epochPhase
	// res is how the last chunk ended: the trap in phaseWalk and
	// phaseEmulate, any exit in phasePoll.
	res machine.StepResult
	// mmio marks a TrapAccess that resolved into the MMIO window, at
	// physical address pa — resolved when the trap was charged, before
	// time passed.
	mmio bool
	pa   uint32
	// sub is a hook's work in virtual time (OnCapture, OnBeforeIO), run to
	// sim.StepDone before the phase resumes.
	sub sim.StepFunc
	// dev is the device pollDevices looks at next.
	dev int
	// io is the operation an MMIO store raised, which phaseIO forwards
	// (after the §4.3 gate, if there is one).
	io heldIO
	// storm: the trap just emulated was a recalled poll's load of a pure
	// device register — the next poll may be known in advance. Set at the
	// end of phaseEmulate, consumed at the head of the phaseRun it runs
	// into.
	storm bool
	// quiet: the poll in flight is one the standing promise covers, so
	// its charges are returned with sim.StepQuiet.
	quiet bool
}

// heldIO is an environment operation an MMIO store raised for real
// hardware: an output store, or a device start.
type heldIO struct {
	d        *shadowDev
	rel, val uint32
	start    bool
}

// more is the status a charge is returned with: loud, unless the poll in
// flight keeps the storm's promise.
func (r *epochRun) more() sim.StepStatus {
	if r.quiet {
		return sim.StepQuiet
	}
	return sim.StepMore
}

// epochPhase names the piece of the epoch loop EpochStep runs next.
type epochPhase uint8

const (
	// phaseRun: test the end conditions, then execute a chunk and charge
	// its instruction time.
	phaseRun epochPhase = iota
	// phasePoll: the chunk's time has passed; poll the devices (P1
	// capture), then dispatch on how the chunk ended and charge a trap's
	// entry.
	phasePoll
	// phaseWalk: a TLB miss has paid its entry/exit; charge the
	// hypervisor's page-table walk.
	phaseWalk
	// phaseEmulate: the trap's charges are paid; emulate it.
	phaseEmulate
	// phaseIO: forward the held operation — past the §4.3 gate, if
	// OnBeforeIO handed one back — and retire the store that raised it.
	phaseIO
)

// EpochStep is the epoch loop as a resumable step (sim.StepFunc): run a
// chunk → return its instruction-time charge → poll devices and dispatch
// → return the trap's charge(s) → emulate → loop, until the epoch ends
// (sim.StepDone). A chunk that retired nothing charges nothing and does
// not return. p is the process driving the machine.
//
// Hooks hand their time back. OnCapture ships the interrupt record on the
// lock-step path and OnBeforeIO waits at the §4.3 gate: each returns a
// sub-step, which EpochStep runs to sim.StepDone — returning its sleeps
// and waits as its own — before it resumes its phase: the next device's
// poll after a capture, the held operation after the gate.
func (hv *Hypervisor) EpochStep(p *sim.Proc) (sim.Time, sim.StepStatus) {
	r := &hv.run
	m := hv.M
	for {
		if r.sub != nil {
			if d, st := r.sub(p); st != sim.StepDone {
				return d, st
			}
			r.sub = nil
		}
		switch r.phase {
		case phaseRun:
			if hv.halted {
				return 0, sim.StepDone
			}
			// An armed output cut shortens the epoch; re-evaluated every
			// iteration because mmioStore arms (or re-arms) it mid-epoch.
			eff := hv.epochEnd()
			// Stop is failstop injection: the processor halts abruptly
			// and detectably.
			if hv.guestInstr >= eff || (hv.Stop != nil && hv.Stop()) {
				return 0, sim.StepDone
			}
			// Arm the recovery counter for the remainder of the epoch: the
			// Instruction-Stream Interrupt Assumption in action. The batched
			// executor turns it into an instruction budget instead of a
			// per-step control-register check.
			remaining := eff - hv.guestInstr
			m.CRs[isa.CRRCTR] = uint32(remaining)

			// An idle guest's poll, known in advance: retire what can be
			// retired ahead, or at least say the next one will be quiet.
			r.quiet = false
			if r.storm {
				r.storm = false
				if d := hv.stormAhead(p, remaining); d > 0 {
					return d, sim.StepQuiet
				}
			}

			// Execute a chunk, then sync simulated time and poll devices.
			rr := m.Run(min(chunkSize, remaining))
			hv.guestInstr += rr.Executed
			hv.Stats.GuestInstructions += rr.Executed
			r.res, r.phase = rr.StepResult, phasePoll
			if rr.Executed > 0 {
				return sim.Time(rr.Executed) * instructionTime, r.more()
			}

		case phasePoll:
			// Poll real device lines raised while the chunk ran (P1 capture).
			// A raised line is news from outside: whatever was promised
			// about this poll, it is not quiet.
			if m.CRs[isa.CREIRR] != 0 {
				r.quiet = false
			}
			if !hv.pollDevices() {
				continue // a capture's sub-step first
			}
			r.phase = phaseRun
			switch {
			case r.res.Trap == isa.TrapRecovery:
				// Epoch boundary reached exactly.
				if eff := hv.epochEnd(); hv.guestInstr != eff {
					panic(fmt.Sprintf("hypervisor: recovery trap at %d, target %d",
						hv.guestInstr, eff))
				}
			case r.res.Trap != isa.TrapNone:
				return hv.trapCharges(), r.more()
			case r.res.Halted:
				hv.halted = true
			}

		case phaseWalk:
			r.phase = phaseEmulate
			hv.Stats.HypervisorTime += tlbWalk
			return tlbWalk, sim.StepMore

		case phaseEmulate:
			r.phase = phaseRun
			hv.emulateTrap()

		case phaseIO:
			r.phase = phaseRun
			hv.forward(r.io)
			r.io = heldIO{}
		}
	}
}

// epochEnd returns the coordinate the running epoch ends at: its full
// length, or an armed output cut before that.
func (hv *Hypervisor) epochEnd() uint64 {
	if hv.cutAt != 0 && hv.cutAt < hv.run.target {
		return hv.cutAt
	}
	return hv.run.target
}

// StartEpochClock begins a new epoch's virtual-TOD base: the primary uses
// its real clock; the backup uses the Tme value from the primary (call
// SetTODBase instead). Charged as part of boundary processing.
func (hv *Hypervisor) StartEpochClock() uint32 {
	tod := hv.M.TOD()
	hv.SetTODBase(tod)
	return tod
}

// ChargeBoundary accounts the local epoch-boundary processing cost and
// returns it, for the caller's step to sleep.
func (hv *Hypervisor) ChargeBoundary() sim.Time {
	hv.Stats.HypervisorTime += epochLocal
	return epochLocal
}

// chargeSim accounts one full hypervisor simulation (entry/exit + work)
// and returns its cost for EpochStep to charge. Under ResidentEmulation,
// a simulation landing within residentWindow guest instructions of the
// previous one costs only the simulation work: the hypervisor never left,
// so no fresh world switch is paid. Pure function of the instruction
// stream — every replica charges identically.
func (hv *Hypervisor) chargeSim() sim.Time {
	c := HSim
	if hv.cfg.ResidentEmulation && hv.residentArmed &&
		hv.guestInstr-hv.residentAt <= residentWindow {
		c = residentWork
		hv.Stats.ResidentSims++
	}
	hv.residentAt, hv.residentArmed = hv.guestInstr, true
	hv.Stats.HypervisorTime += c
	return c
}

// chargeEntryExit accounts a hypervisor entry/exit without simulation
// work (trap reflection, TLB fill base cost) and returns its cost.
func (hv *Hypervisor) chargeEntryExit() sim.Time {
	c := trapEntryExit
	hv.Stats.HypervisorTime += c
	return c
}

// trapCharges classifies the trap the chunk ended on, reads everything
// its charge and emulation depend on before time passes (a TrapAccess is
// resolved against the guest's translation context here), accounts the
// first charge and returns it, leaving the cursor at what follows the
// charge: emulateTrap, or for a TLB miss under the §3.2 takeover a second
// charge first — the page-table walk, accounted when it starts, so that
// the two stay two sleeps with their own wake keys and a capture between
// them sees only the first in Stats.
func (hv *Hypervisor) trapCharges() sim.Time {
	r := &hv.run
	r.phase, r.mmio = phaseEmulate, false
	switch r.res.Trap {
	case isa.TrapPriv:
		return hv.chargeSim()

	case isa.TrapITLBMiss, isa.TrapDTLBMiss:
		if !hv.cfg.NoTLBTakeover {
			r.phase = phaseWalk
		}
		return hv.chargeEntryExit()

	case isa.TrapAccess:
		// Either a memory-mapped I/O access (environment instruction,
		// §3.2) or a genuine guest protection fault.
		if pa, ok := hv.guestPhysical(r.res.IOR); ok && hv.M.InMMIO(pa) {
			r.mmio, r.pa = true, pa
			return hv.chargeSim()
		}
		return hv.chargeEntryExit()

	case isa.TrapGate, isa.TrapBreak, isa.TrapIllegal, isa.TrapAlign,
		isa.TrapArith, isa.TrapMachine:
		// Guest-internal events: reflect.
		return hv.chargeEntryExit()

	case isa.TrapExtIntr:
		// Cannot happen: the guest runs with real interrupts disabled.
		panic("hypervisor: real external interrupt trap while guest running")

	default:
		panic(fmt.Sprintf("hypervisor: unhandled trap %v", r.res.Trap))
	}
}

// emulateTrap performs the emulation trapCharges classified, once its
// charges are paid.
func (hv *Hypervisor) emulateTrap() {
	res := &hv.run.res
	switch res.Trap {
	case isa.TrapPriv:
		hv.Stats.PrivSimulated++
		hv.emulatePrivileged(res.Inst)
		// The simulated instruction retires from the guest's point of
		// view: it counts toward the epoch's instruction total exactly
		// as a hardware-executed instruction would.
		hv.guestInstr++
		hv.Stats.GuestInstructions++

	case isa.TrapITLBMiss, isa.TrapDTLBMiss:
		if hv.cfg.NoTLBTakeover {
			// Ablation: behave like a hypervisor that did NOT take over
			// TLB management — the guest's software miss handler runs,
			// at instruction-stream positions determined by the REAL
			// TLB's (possibly nondeterministic) contents.
			hv.deliverVirtualTrap(res.Trap, 0, res.IOR)
			return
		}
		// §3.2: the hypervisor takes over TLB management. Walk the
		// guest's page table; if the page is resident, insert the
		// translation invisibly. Only a non-resident page reflects a
		// miss into the guest.
		va := res.IOR
		pte, ok := hv.walkGuestPT(va)
		if ok && pte&PTEValid != 0 {
			hv.Stats.TLBFills++
			hv.insertGuestTLB(va, pte)
			return // retry the faulting instruction
		}
		hv.deliverVirtualTrap(res.Trap, 0, va)

	case isa.TrapAccess:
		if hv.run.mmio {
			hv.Stats.EnvSimulated++
			if hv.emulateMMIO(res.Inst, hv.run.pa); hv.run.phase != phaseIO {
				hv.guestInstr++ // simulated instruction retires
				hv.Stats.GuestInstructions++
			}
			return
		}
		hv.deliverVirtualTrap(isa.TrapAccess, res.ISR, res.IOR)

	default:
		// Guest-internal events: reflect.
		hv.deliverVirtualTrap(res.Trap, res.ISR, res.IOR)
	}
}

// emulatePrivileged simulates a privileged (or privileged-environment)
// instruction against virtual state. PC still points at the instruction.
func (hv *Hypervisor) emulatePrivileged(in isa.Inst) {
	m := hv.M
	advance := func() { m.PC += 4 }
	switch in.Op {
	case isa.OpMFCTL:
		hv.setGuestReg(in.Rd, hv.VirtualCR(isa.CR(in.Imm)))
		advance()
	case isa.OpMTCTL:
		hv.writeVirtualCR(isa.CR(in.Imm), hv.guestReg(in.R1))
		advance()
		// Unmasking may make a pending virtual interrupt deliverable.
		if isa.CR(in.Imm) == isa.CREIEM || isa.CR(in.Imm) == isa.CREIRR {
			hv.checkVIRQ()
		}
	case isa.OpRFI:
		hv.vPSW = hv.vCR[isa.CRIPSW] &^ isa.PSWDefect
		hv.applyVPSW()
		m.PC = hv.vCR[isa.CRIIA]
		hv.checkVIRQ()
	case isa.OpHALT:
		hv.halted = true
		advance()
	case isa.OpWFI:
		// The virtual WFI completes immediately: under replication,
		// interrupts arrive only at epoch boundaries, so guests that
		// wait for I/O spin on driver flags (as HP-UX's idle loop
		// spins). Treating WFI as a no-op keeps the instruction stream
		// deterministic.
		hv.Stats.EnvSimulated++
		advance()
	case isa.OpITLBI:
		v := hv.guestReg(in.R1)
		hv.insertGuestTLB(v&^isa.PageMask, (hv.guestReg(in.R2)&^isa.PageMask)|(v&isa.TLBPermMask)|PTEValid)
		advance()
	case isa.OpPTLB:
		m.TLB.Purge()
		advance()
	case isa.OpDIAG:
		advance()
	case isa.OpMFTOD:
		// THE environment instruction (§2.1): its value is synthesized
		// from the epoch-synchronized virtual clock so that it reads
		// identically on primary and backup.
		hv.Stats.EnvSimulated++
		hv.setGuestReg(in.Rd, hv.VirtualTOD())
		advance()
	default:
		panic(fmt.Sprintf("hypervisor: privileged trap for non-privileged %v", in.Op))
	}

}

// guestReg/setGuestReg access guest general registers (shared with the
// real machine — the guest's registers ARE the machine's).
func (hv *Hypervisor) guestReg(r isa.Reg) uint32 {
	if r == isa.RegZero {
		return 0
	}
	return hv.M.Regs[r]
}

func (hv *Hypervisor) setGuestReg(r isa.Reg, v uint32) {
	if r != isa.RegZero {
		hv.M.Regs[r] = v
	}
}

// walkGuestPT reads the guest page-table entry for a virtual address.
func (hv *Hypervisor) walkGuestPT(va uint32) (uint32, bool) {
	ptbr := hv.vCR[isa.CRPTBR]
	if ptbr == 0 {
		return 0, false
	}
	vpn := va >> isa.PageShift
	pteAddr := ptbr + vpn*4
	if pteAddr+4 > hv.M.MemSize() {
		return 0, false
	}
	return hv.M.LoadPhys32(pteAddr), true
}

// insertGuestTLB inserts a guest translation into the REAL TLB with the
// privilege field mapped from virtual to real levels.
func (hv *Hypervisor) insertGuestTLB(vaddr, pte uint32) {
	vMinPL := (pte & isa.TLBPLMask) >> isa.TLBPLShift
	flags := pte&(isa.TLBRead|isa.TLBWrite|isa.TLBExec) | (realPLFor(vMinPL) << isa.TLBPLShift)
	hv.M.TLB.Insert(machine.TLBEntry{
		VPN:   vaddr >> isa.PageShift,
		PPN:   pte >> isa.PageShift,
		Flags: flags,
	})
}

// guestPhysical resolves a guest virtual address to physical using the
// guest's translation context (identity in real mode, page table in
// virtual mode).
func (hv *Hypervisor) guestPhysical(va uint32) (uint32, bool) {
	if hv.vPSW&isa.PSWV == 0 {
		return va, true
	}
	pte, ok := hv.walkGuestPT(va)
	if !ok || pte&PTEValid == 0 {
		return 0, false
	}
	return pte&^uint32(isa.PageMask) | va&isa.PageMask, true
}

// emulateMMIO simulates a guest load or store to the MMIO window — the
// Environment Instruction mechanism of §3.2: access rights on the I/O
// pages force a trap, and the hypervisor performs (or suppresses, or
// virtualizes) the device access. A store whose operation goes out to
// real hardware is held (phaseIO retires it).
func (hv *Hypervisor) emulateMMIO(in isa.Inst, pa uint32) {
	m := hv.M
	off := pa - machine.MMIOBase
	switch in.Op {
	case isa.OpLDW, isa.OpLDH, isa.OpLDB:
		v := hv.mmioLoad(off)
		hv.setGuestReg(in.Rd, v)
		m.PC += 4
		// A recalled call that ended on a load which changed nothing: the
		// makings of a poll storm (storm.go). Asked only behind a memo hit,
		// so a trap that was executed pays one flag test.
		hv.run.storm = m.Recalled() && hv.pureLoad(off)
	case isa.OpSTW, isa.OpSTH, isa.OpSTB:
		if hv.mmioStore(off, hv.guestReg(in.Rd)); hv.run.phase != phaseIO {
			m.PC += 4
		}
	default:
		// A non-load/store faulting on an MMIO page (e.g. instruction
		// fetch): reflect as an access fault.
		hv.deliverVirtualTrap(isa.TrapAccess, 0, pa)
	}
}

// mmioLoad serves a guest MMIO load from VIRTUAL device state. Shadow
// registers evolve identically on primary and backup (guest stores plus
// epoch-boundary completion application), so loads are deterministic
// and need no forwarding.
func (hv *Hypervisor) mmioLoad(off uint32) uint32 {
	if d := hv.devAt(off); d != nil {
		return d.sh.Load(off - d.win.Base)
	}
	return 0
}

// pureLoad reports whether the load mmioLoad serves at off leaves shadow
// state as it found it (device.Shadow.PureLoad; an offset outside every
// window reads zero and is pure).
func (hv *Hypervisor) pureLoad(off uint32) bool {
	if d := hv.devAt(off); d != nil {
		return d.sh.PureLoad(off - d.win.Base)
	}
	return true
}

// mmioStore serves a guest MMIO store: updates virtual device state
// and, when I/O is active (primary / promoted backup), forwards the
// effect to real hardware. On the backup, environment effects are
// suppressed (§2.2 case i) — output stores are additionally recorded so
// a promotion can re-emit the failover epoch's output exactly once.
func (hv *Hypervisor) mmioStore(off uint32, v uint32) {
	d := hv.devAt(off)
	if d == nil {
		return
	}
	rel := off - d.win.Base
	switch d.sh.Store(rel, v) {
	case device.EffectOutput:
		d.outCount++
		hv.noteOutputTrigger()
		if hv.ioActive {
			if hv.deferOutput {
				// Output-commit deferral (VMware-FT output rule): record
				// the store, emit only when this epoch's frame is acked.
				hv.Stats.OutputsDeferred++
				hv.suppressed = append(hv.suppressed, suppressedOutput{
					dev: d, off: rel, val: v, ordinal: d.outCount,
					epoch: hv.epoch, at: hv.clockNow(),
				})
			} else {
				// Output reveals virtual-machine state to the environment:
				// the §4.3 I/O gate applies.
				hv.hold(heldIO{d: d, rel: rel, val: v})
			}
		} else {
			hv.Stats.ConsoleSuppressed++
			hv.suppressed = append(hv.suppressed, suppressedOutput{
				dev: d, off: rel, val: v, ordinal: d.outCount,
				epoch: hv.epoch,
			})
		}
	case device.EffectStart:
		hv.startIO(d)
	}
}

// hold holds io for phaseIO to forward, behind OnBeforeIO's sub-step —
// the §4.3 gate — if there is one.
func (hv *Hypervisor) hold(io heldIO) {
	r := &hv.run
	r.io, r.phase = io, phaseIO
	if hv.OnBeforeIO != nil {
		r.sub = hv.OnBeforeIO()
	}
}

// forward sends a held operation to real hardware — the output store, or
// the start of the device's operation — and retires the store that
// raised it.
func (hv *Hypervisor) forward(io heldIO) {
	if d := io.d; io.start {
		hv.Stats.IOIssued++
		d.issuedReal = true
		d.sh.Start(d.bus)
	} else {
		d.sh.Output(d.bus, io.rel, io.val, d.outCount)
	}
	hv.M.PC += 4
	hv.guestInstr++
	hv.Stats.GuestInstructions++
}

// noteOutputTrigger arms (or pushes back) the adaptive epoch cut after a
// guest environment output. Called on EVERY replica — active or
// suppressed — so the cut coordinate is a pure function of the shared
// instruction stream. The cutSlack countdown coalesces output bursts:
// each further output re-arms it, and the epoch ends only once the guest
// has gone cutSlack instructions without producing output.
func (hv *Hypervisor) noteOutputTrigger() {
	if hv.cfg.AdaptiveBoundary {
		hv.cutAt = hv.guestInstr + cutSlack
	}
}

// startIO starts a virtual I/O operation. The shadow device has already
// gone busy on both replicas; only an I/O-active hypervisor programs
// the real hardware. The operation stays "outstanding" until its
// completion is DELIVERED (not merely captured) — the set rule P7
// covers.
func (hv *Hypervisor) startIO(d *shadowDev) {
	d.outstanding = true
	hv.noteOutputTrigger()
	if !hv.ioActive {
		hv.Stats.IOSuppressed++
		return
	}
	if hv.deferOutput {
		// Output-commit deferral: the real hardware is programmed only
		// when this epoch's frame is acknowledged. The shadow device is
		// already busy on every replica, so guest-visible state is
		// unaffected by the delay.
		hv.Stats.StartsDeferred++
		hv.suppressed = append(hv.suppressed, suppressedOutput{
			dev: d, start: true, epoch: hv.epoch, at: hv.clockNow(),
		})
		return
	}
	hv.hold(heldIO{d: d, start: true})
}

// pollDevices captures completions the real hardware has raised since the
// last poll: rule P1's "hypervisor receives an interrupt Int". Captured
// interrupts are buffered for delivery at this epoch's end and reported
// through OnCapture so the replication layer can forward them. When that
// hands back a sub-step, pollDevices stops after the capture and reports
// false; called again once the sub-step is done, it resumes at the next
// device.
func (hv *Hypervisor) pollDevices() bool {
	m := hv.M
	r := &hv.run
	if r.dev == 0 && m.CRs[isa.CREIRR] == 0 {
		return true
	}
	for r.dev < len(hv.devs) {
		d := hv.devs[r.dev]
		r.dev++
		if d.win.Line == device.NoLine {
			continue
		}
		bit := uint32(1) << (d.win.Line & 31)
		if m.CRs[isa.CREIRR]&bit == 0 {
			continue
		}
		// Acknowledge the real line.
		m.WriteCR(isa.CREIRR, bit)
		if !d.issuedReal && !(d.win.Unsolicited && hv.ioActive) {
			// A completion for an operation this hypervisor did not
			// issue (e.g. leftover from a failed peer), or unsolicited
			// input on a non-I/O-active node: rule P3 — the backup
			// ignores interrupts destined for its own processor (it
			// receives the records through the epoch stream instead).
			continue
		}
		c, ok := d.sh.Capture(d.bus, m)
		if !ok {
			continue
		}
		i := Interrupt{
			Line:        d.win.Line,
			Dev:         d.win.Base,
			Completion:  c,
			CapturedTOD: m.TOD() | 1, // nonzero marker; ±1 cycle is noise
		}
		hv.Stats.Captured++
		hv.buffered = append(hv.buffered, i)
		if hv.OnCapture != nil {
			if r.sub = hv.OnCapture(i); r.sub != nil {
				return false
			}
		}
	}
	r.dev = 0
	// Ignore raised lines that belong to no known device: clear them.
	// Lines owned by a device must NOT be cleared here — forwarding a
	// capture takes virtual time (the interrupt record's set-up on the
	// link), and a device interrupt that lands meanwhile has not been
	// looked at by the loop above. Leaving its bit set lets the next poll
	// capture it.
	var known uint32
	for _, d := range hv.devs {
		if d.win.Line != device.NoLine {
			known |= uint32(1) << (d.win.Line & 31)
		}
	}
	if rest := m.CRs[isa.CREIRR] &^ known; rest != 0 {
		m.WriteCR(isa.CREIRR, rest)
	}
	return true
}
