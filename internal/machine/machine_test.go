package machine

import (
	"testing"

	"repro/internal/asm"
	"repro/internal/isa"
)

// load assembles src and loads it into a fresh machine at PL 0.
func load(t *testing.T, src string, cfg Config) *Machine {
	t.Helper()
	p, err := asm.Assemble("test.s", src)
	if err != nil {
		t.Fatalf("assemble: %v", err)
	}
	m := New(cfg)
	m.LoadProgram(p.Origin, p.Words, p.Origin)
	return m
}

// run steps until HALT or a trap, bounded by max steps. It returns the
// last result.
func run(t *testing.T, m *Machine, max int) StepResult {
	t.Helper()
	for i := 0; i < max; i++ {
		res := m.Step()
		if res.Trap != isa.TrapNone || res.Halted {
			return res
		}
	}
	t.Fatalf("no halt or trap within %d steps (PC=%#x)", max, m.PC)
	return StepResult{}
}

func TestALUBasics(t *testing.T) {
	m := load(t, `
		addi r1, r0, 7
		addi r2, r0, 3
		add  r3, r1, r2
		sub  r4, r1, r2
		mul  r5, r1, r2
		div  r6, r1, r2
		rem  r7, r1, r2
		and  r8, r1, r2
		or   r9, r1, r2
		xor  r10, r1, r2
		slt  r11, r2, r1
		sltu r12, r1, r2
		halt
	`, Config{})
	run(t, m, 100)
	want := map[isa.Reg]uint32{3: 10, 4: 4, 5: 21, 6: 2, 7: 1, 8: 3, 9: 7, 10: 4, 11: 1, 12: 0}
	for r, v := range want {
		if m.Regs[r] != v {
			t.Errorf("r%d = %d, want %d", r, m.Regs[r], v)
		}
	}
}

func TestShifts(t *testing.T) {
	m := load(t, `
		li   r1, 0x80000001
		slli r2, r1, 1
		srli r3, r1, 1
		srai r4, r1, 1
		addi r5, r0, 4
		sll  r6, r1, r5
		halt
	`, Config{})
	run(t, m, 100)
	if m.Regs[2] != 0x00000002 {
		t.Errorf("slli = %#x", m.Regs[2])
	}
	if m.Regs[3] != 0x40000000 {
		t.Errorf("srli = %#x", m.Regs[3])
	}
	if m.Regs[4] != 0xC0000000 {
		t.Errorf("srai = %#x", m.Regs[4])
	}
	if m.Regs[6] != 0x00000010 {
		t.Errorf("sll = %#x", m.Regs[6])
	}
}

func TestR0Hardwired(t *testing.T) {
	m := load(t, `
		addi r0, r0, 99
		add  r1, r0, r0
		halt
	`, Config{})
	run(t, m, 10)
	if m.Regs[0] != 0 || m.Regs[1] != 0 {
		t.Errorf("r0 = %d, r1 = %d, want 0, 0", m.Regs[0], m.Regs[1])
	}
}

func TestLoadsStores(t *testing.T) {
	m := load(t, `
		li  r1, 0x1000
		li  r2, 0xDEADBEEF
		stw r2, 0(r1)
		ldw r3, 0(r1)
		ldh r4, 0(r1)
		ldb r5, 3(r1)
		sth r2, 8(r1)
		ldw r6, 8(r1)
		stb r2, 12(r1)
		ldw r7, 12(r1)
		halt
	`, Config{})
	run(t, m, 100)
	if m.Regs[3] != 0xDEADBEEF {
		t.Errorf("ldw = %#x", m.Regs[3])
	}
	if m.Regs[4] != 0xBEEF {
		t.Errorf("ldh = %#x (little-endian low half)", m.Regs[4])
	}
	if m.Regs[5] != 0xDE {
		t.Errorf("ldb byte 3 = %#x", m.Regs[5])
	}
	if m.Regs[6] != 0xBEEF {
		t.Errorf("sth wrote %#x", m.Regs[6])
	}
	if m.Regs[7] != 0xEF {
		t.Errorf("stb wrote %#x", m.Regs[7])
	}
}

func TestBranchesAndLoops(t *testing.T) {
	m := load(t, `
		addi r1, r0, 5
		addi r2, r0, 0
	loop:
		add  r2, r2, r1
		addi r1, r1, -1
		bne  r1, r0, loop
		halt
	`, Config{})
	run(t, m, 100)
	if m.Regs[2] != 15 {
		t.Errorf("sum = %d, want 15", m.Regs[2])
	}
}

func TestBLDepositsPrivilegeLevel(t *testing.T) {
	// At PL 0 the low bits are 0; the privilege hazard is tested in the
	// hypervisor tests where guest code runs demoted.
	m := load(t, `
		bl r2, target
	target:
		halt
	`, Config{})
	run(t, m, 10)
	if m.Regs[2] != 4 {
		t.Errorf("rp = %#x, want 4 (PL 0)", m.Regs[2])
	}
	// Now at PL 3 (set artificially): BL must deposit 3.
	m2 := load(t, `
		bl r2, target
	target:
		halt
	`, Config{})
	m2.SetPL(3)
	m2.Step()
	if m2.Regs[2] != 4|3 {
		t.Errorf("rp = %#x, want 7 (PL 3 deposited)", m2.Regs[2])
	}
}

func TestBVMasksPrivilegeBits(t *testing.T) {
	m := load(t, `
		li r1, ret_here + 3   ; simulate PL bits in address
		bv r1
		halt                  ; skipped
	ret_here:
		addi r9, r0, 1
		halt
	`, Config{})
	run(t, m, 10)
	if m.Regs[9] != 1 {
		t.Error("bv did not mask low bits / branch correctly")
	}
}

func TestCallRetSequence(t *testing.T) {
	m := load(t, `
		addi r1, r0, 1
		call fn
		addi r1, r1, 100
		halt
	fn:
		addi r1, r1, 10
		ret
	`, Config{})
	run(t, m, 100)
	if m.Regs[1] != 111 {
		t.Errorf("r1 = %d, want 111", m.Regs[1])
	}
}

func TestDivideByZeroTrap(t *testing.T) {
	m := load(t, `
		addi r1, r0, 5
		div  r2, r1, r0
		halt
	`, Config{})
	res := run(t, m, 10)
	if res.Trap != isa.TrapArith {
		t.Errorf("trap = %v, want arith", res.Trap)
	}
	// PC still points at the faulting instruction.
	if m.PC != 4 {
		t.Errorf("PC = %#x, want 4", m.PC)
	}
}

func TestDivOverflowDefined(t *testing.T) {
	m := load(t, `
		li   r1, 0x80000000
		addi r2, r0, -1
		div  r3, r1, r2
		rem  r4, r1, r2
		halt
	`, Config{})
	run(t, m, 20)
	if m.Regs[3] != 0x80000000 {
		t.Errorf("div overflow = %#x, want 0x80000000", m.Regs[3])
	}
	if m.Regs[4] != 0 {
		t.Errorf("rem overflow = %d, want 0", m.Regs[4])
	}
}

func TestAlignmentTraps(t *testing.T) {
	m := load(t, `
		li  r1, 0x1001
		ldw r2, 0(r1)
		halt
	`, Config{})
	res := run(t, m, 10)
	if res.Trap != isa.TrapAlign || res.IOR != 0x1001 {
		t.Errorf("res = %+v, want align trap at 0x1001", res)
	}
}

func TestIllegalInstructionTrap(t *testing.T) {
	m := load(t, `
		.word 0xFFFFFFFF
	`, Config{})
	res := m.Step()
	if res.Trap != isa.TrapIllegal {
		t.Errorf("trap = %v, want illegal", res.Trap)
	}
	if res.ISR != 0xFFFFFFFF {
		t.Errorf("ISR = %#x, want the raw word", res.ISR)
	}
}

func TestPrivilegeTraps(t *testing.T) {
	for _, src := range []string{
		"\tmfctl r1, rctr\n\thalt\n",
		"\tmtctl itmr, r1\n\thalt\n",
		"\trfi\n",
		"\thalt\n",
		"\twfi\n",
		"\titlbi r1, r2\n",
		"\tptlb\n",
		"\tdiag 1\n",
		"\tmftod r1\n",
	} {
		m := load(t, src, Config{})
		m.SetPL(3)
		res := m.Step()
		if res.Trap != isa.TrapPriv {
			t.Errorf("src %q at PL3: trap = %v, want priv", src, res.Trap)
		}
	}
}

func TestGateTrapPromotes(t *testing.T) {
	m := load(t, `
		.org 0
		gate r2, 0
		halt
	`, Config{})
	m.CRs[isa.CRIVA] = 0x2000
	m.SetPL(3)
	res := m.Step()
	if res.Trap != isa.TrapGate {
		t.Fatalf("trap = %v, want gate", res.Trap)
	}
	// rd got return address with PL bits even though the trap is pending.
	if m.Regs[2] != 4|3 {
		t.Errorf("gate rd = %#x, want 7", m.Regs[2])
	}
	m.DeliverTrap(res.Trap, res.ISR, res.IOR)
	if m.PL() != 0 {
		t.Errorf("PL after DeliverTrap = %d, want 0", m.PL())
	}
	if m.PC != 0x2000+uint32(isa.TrapGate)*isa.VectorStride {
		t.Errorf("PC = %#x", m.PC)
	}
	if m.CRs[isa.CRIPSW]&isa.PSWPLMask != 3 {
		t.Errorf("IPSW PL = %d, want 3", m.CRs[isa.CRIPSW]&isa.PSWPLMask)
	}
}

func TestDeliverTrapAndRFI(t *testing.T) {
	m := load(t, `
		break 5
	`, Config{})
	m.CRs[isa.CRIVA] = 0x3000
	m.PSW |= isa.PSWI
	res := m.Step()
	if res.Trap != isa.TrapBreak || res.ISR != 5 {
		t.Fatalf("res = %+v", res)
	}
	oldPSW := m.PSW
	m.DeliverTrap(res.Trap, res.ISR, res.IOR)
	if m.PSW&isa.PSWI != 0 {
		t.Error("interrupts not disabled by trap delivery")
	}
	if m.CRs[isa.CRIIA] != 0 {
		t.Errorf("IIA = %#x, want 0 (faulting PC)", m.CRs[isa.CRIIA])
	}
	if m.CRs[isa.CRIPSW] != oldPSW {
		t.Error("IPSW not saved")
	}
	// Write an RFI at the vector and execute it: state restored.
	vec := m.PC
	m.StorePhys32(vec, isa.MustEncode(isa.Inst{Op: isa.OpRFI}))
	m.CRs[isa.CRIIA] = 0x40 // return somewhere else
	m.Step()
	if m.PC != 0x40 {
		t.Errorf("PC after RFI = %#x, want 0x40", m.PC)
	}
	if m.PSW != oldPSW&^isa.PSWDefect {
		t.Errorf("PSW after RFI = %#x, want %#x", m.PSW, oldPSW)
	}
}

func TestRecoveryCounterEpochs(t *testing.T) {
	// Program an epoch of 10 instructions; the machine must execute
	// exactly 10 and then raise a recovery trap.
	m := load(t, `
	loop:
		addi r1, r1, 1
		b loop
	`, Config{})
	m.CRs[isa.CRRCTR] = 10
	m.PSW |= isa.PSWR
	var res StepResult
	steps := 0
	for {
		res = m.Step()
		if res.Trap != isa.TrapNone {
			break
		}
		steps++
		if steps > 50 {
			t.Fatal("no recovery trap")
		}
	}
	if res.Trap != isa.TrapRecovery {
		t.Fatalf("trap = %v, want recovery", res.Trap)
	}
	if steps != 10 {
		t.Errorf("executed %d instructions in epoch, want 10", steps)
	}
	if m.Cycles() != 10 {
		t.Errorf("cycles = %d, want 10", m.Cycles())
	}
	// Epochs are repeatable: reload the counter and run again.
	m.CRs[isa.CRRCTR] = 7
	steps = 0
	for {
		res = m.Step()
		if res.Trap != isa.TrapNone {
			break
		}
		steps++
	}
	if steps != 7 {
		t.Errorf("second epoch executed %d, want 7", steps)
	}
}

func TestIntervalTimerRaisesIRQ0(t *testing.T) {
	m := load(t, `
	loop:
		addi r1, r1, 1
		b loop
	`, Config{})
	m.CRs[isa.CRITMR] = 5
	m.CRs[isa.CREIEM] = 1 // unmask line 0
	m.PSW |= isa.PSWI
	steps := 0
	var res StepResult
	for {
		res = m.Step()
		if res.Trap != isa.TrapNone {
			break
		}
		steps++
		if steps > 20 {
			t.Fatal("no timer interrupt")
		}
	}
	if res.Trap != isa.TrapExtIntr {
		t.Fatalf("trap = %v, want extintr", res.Trap)
	}
	if steps != 5 {
		t.Errorf("timer fired after %d instructions, want 5", steps)
	}
	if m.CRs[isa.CREIRR]&1 == 0 {
		t.Error("EIRR bit 0 not set")
	}
}

func TestInterruptMasking(t *testing.T) {
	m := load(t, `
		addi r1, r1, 1
		addi r1, r1, 1
		halt
	`, Config{})
	m.RaiseIRQ(3)
	// PSW.I clear: no interrupt taken.
	if res := m.Step(); res.Trap != isa.TrapNone {
		t.Fatalf("interrupt taken with PSW.I clear: %+v", res)
	}
	// Unmasked + enabled: taken before next instruction.
	m.CRs[isa.CREIEM] = 1 << 3
	m.PSW |= isa.PSWI
	res := m.Step()
	if res.Trap != isa.TrapExtIntr || res.ISR != 1<<3 {
		t.Fatalf("res = %+v, want extintr line 3", res)
	}
	// Write-1-to-clear EIRR.
	m.WriteCR(isa.CREIRR, 1<<3)
	if m.IRQPending() {
		t.Error("IRQ still pending after clear")
	}
}

func TestWFI(t *testing.T) {
	m := load(t, `
		wfi
		halt
	`, Config{})
	res := m.Step()
	if !res.Idle {
		t.Fatalf("res = %+v, want Idle", res)
	}
	// WFI retired: PC advanced.
	if m.PC != 4 {
		t.Errorf("PC = %#x, want 4", m.PC)
	}
	// With an IRQ already raised, WFI is not idle.
	m2 := load(t, `
		wfi
		halt
	`, Config{})
	m2.RaiseIRQ(1)
	if res := m2.Step(); res.Idle {
		t.Error("WFI idle despite raised IRQ")
	}
}

func TestHalt(t *testing.T) {
	m := load(t, "\thalt\n", Config{})
	res := m.Step()
	if !res.Halted || !m.Halted() {
		t.Fatalf("res = %+v", res)
	}
	// Further steps are no-ops.
	res = m.Step()
	if !res.Halted {
		t.Error("step after halt not reported halted")
	}
	if m.Cycles() != 1 {
		t.Errorf("cycles = %d, want 1", m.Cycles())
	}
}

func TestDiag(t *testing.T) {
	m := load(t, "\tdiag 41\n\thalt\n", Config{})
	res := m.Step()
	if res.Diag != 42 {
		t.Errorf("Diag = %d, want 42 (code+1)", res.Diag)
	}
}

func TestMFTODUsesSource(t *testing.T) {
	var now uint32 = 12345
	m := load(t, "\tmftod r1\n\thalt\n", Config{TODSource: func() uint32 { return now }})
	m.Step()
	if m.Regs[1] != 12345 {
		t.Errorf("mftod = %d, want 12345", m.Regs[1])
	}
	// Default source: cycle count.
	m2 := load(t, "\tnop\n\tmftod r1\n\thalt\n", Config{})
	m2.Step()
	m2.Step()
	if m2.Regs[1] != 1 {
		t.Errorf("default TOD = %d, want 1 (cycles before mftod)", m2.Regs[1])
	}
}

func TestTODAndCPUIDReadOnly(t *testing.T) {
	m := New(Config{CPUID: 7})
	m.WriteCR(isa.CRTOD, 999)
	m.WriteCR(isa.CRCPUID, 999)
	if m.ReadCR(isa.CRCPUID) != 7 {
		t.Errorf("CPUID = %d, want 7", m.ReadCR(isa.CRCPUID))
	}
}

func TestVirtualAddressingAndTLBMiss(t *testing.T) {
	// Map virtual page 5 -> physical page 2, then access it.
	m := load(t, `
		; build TLB entry: vpn 5, perms RW, minPL 0 ; ppn 2
		li r1, (5 << 12) | 3      ; vaddr | read|write
		li r2, (2 << 12)
		itlbi r1, r2
		; turn on translation: PSW.V is bit 3 -> handled via test harness
		halt
	`, Config{})
	run(t, m, 100)
	// Enable translation manually and map the code page too.
	m.TLB.Insert(TLBEntry{VPN: 0, PPN: 0, Flags: isa.TLBRead | isa.TLBExec})
	m.PSW |= isa.PSWV
	// Data access via translation: write through virtual page 5.
	m.PC = 0 // not executing; direct translate test
	pa, tr := m.translate(5<<12|0x34, accessWrite)
	if tr != isa.TrapNone {
		t.Fatalf("translate trap %v", tr)
	}
	if pa != 2<<12|0x34 {
		t.Errorf("pa = %#x, want %#x", pa, 2<<12|0x34)
	}
	// Unmapped page: miss.
	if _, tr := m.translate(9<<12, accessRead); tr != isa.TrapDTLBMiss {
		t.Errorf("trap = %v, want dtlbmiss", tr)
	}
	// Exec from unmapped: ITLB miss.
	if _, tr := m.translate(9<<12, accessExec); tr != isa.TrapITLBMiss {
		t.Errorf("trap = %v, want itlbmiss", tr)
	}
}

func TestTLBPermissionEnforcement(t *testing.T) {
	m := New(Config{})
	m.TLB.Insert(TLBEntry{VPN: 1, PPN: 1, Flags: isa.TLBRead}) // read-only, minPL 0
	m.PSW |= isa.PSWV
	if _, tr := m.translate(1<<12, accessRead); tr != isa.TrapNone {
		t.Errorf("read trap = %v", tr)
	}
	if _, tr := m.translate(1<<12, accessWrite); tr != isa.TrapAccess {
		t.Errorf("write trap = %v, want access", tr)
	}
	// minPL 1 page: PL 2 denied, PL 1 allowed, PL 0 always allowed.
	m.TLB.Insert(TLBEntry{VPN: 2, PPN: 2, Flags: isa.TLBRead | 1<<isa.TLBPLShift})
	m.SetPL(2)
	if _, tr := m.translate(2<<12, accessRead); tr != isa.TrapAccess {
		t.Errorf("PL2 read = %v, want access trap", tr)
	}
	m.SetPL(1)
	if _, tr := m.translate(2<<12, accessRead); tr != isa.TrapNone {
		t.Errorf("PL1 read = %v, want none", tr)
	}
	m.SetPL(0)
	if _, tr := m.translate(2<<12, accessRead); tr != isa.TrapNone {
		t.Errorf("PL0 read = %v, want none", tr)
	}
}

func TestPTLBPurges(t *testing.T) {
	m := New(Config{})
	m.TLB.Insert(TLBEntry{VPN: 1, PPN: 1, Flags: isa.TLBRead})
	m.TLB.Purge()
	if len(m.TLB.Entries()) != 0 {
		t.Error("TLB not purged")
	}
	if m.TLB.Stats.Purges != 1 {
		t.Error("purge not counted")
	}
}

func TestProbeInstruction(t *testing.T) {
	m := load(t, `
		li r1, 0x1000
		probe r3, r1, 0
		halt
	`, Config{})
	run(t, m, 10)
	if m.Regs[3] != 1 {
		t.Errorf("probe real-mode RAM = %d, want 1", m.Regs[3])
	}
	// MMIO probe at PL3 in real mode: denied.
	m2 := New(Config{})
	m2.SetPL(3)
	m2.Regs[1] = MMIOBase
	m2.StorePhys32(0, isa.MustEncode(isa.Inst{Op: isa.OpPROBE, Rd: 3, R1: 1, Imm: 0}))
	m2.Step()
	if m2.Regs[3] != 0 {
		t.Errorf("probe MMIO at PL3 = %d, want 0", m2.Regs[3])
	}
}

// mmioRecorder is a test MMIO device.
type mmioRecorder struct {
	loads  []uint32
	stores []uint32
	val    uint32
}

func (d *mmioRecorder) MMIOLoad(addr uint32, size int) (uint32, error) {
	d.loads = append(d.loads, addr)
	return d.val, nil
}

func (d *mmioRecorder) MMIOStore(addr uint32, size int, v uint32) error {
	d.stores = append(d.stores, addr)
	d.val = v
	return nil
}

func (d *mmioRecorder) MMIOPure(uint32) bool { return false } // it records every load

func TestMMIOAccess(t *testing.T) {
	dev := &mmioRecorder{val: 0x55}
	m := load(t, `
		li  r1, 0xF0000000
		ldw r2, 0x10(r1)
		stw r2, 0x14(r1)
		halt
	`, Config{})
	m.Bus = dev
	run(t, m, 10)
	if m.Regs[2] != 0x55 {
		t.Errorf("MMIO load = %#x", m.Regs[2])
	}
	if len(dev.loads) != 1 || dev.loads[0] != 0x10 {
		t.Errorf("loads = %v", dev.loads)
	}
	if len(dev.stores) != 1 || dev.stores[0] != 0x14 || dev.val != 0x55 {
		t.Errorf("stores = %v val = %#x", dev.stores, dev.val)
	}
}

func TestMMIODeniedAbovePL0(t *testing.T) {
	dev := &mmioRecorder{}
	m := load(t, `
		li  r1, 0xF0000000
		ldw r2, 0(r1)
		halt
	`, Config{})
	m.Bus = dev
	m.SetPL(1)
	res := run(t, m, 10)
	if res.Trap != isa.TrapAccess {
		t.Errorf("trap = %v, want access (MMIO needs PL 0)", res.Trap)
	}
	if len(dev.loads) != 0 {
		t.Error("device touched despite trap")
	}
}

func TestMMIOWithoutBusMachineChecks(t *testing.T) {
	m := load(t, `
		li  r1, 0xF0000000
		ldw r2, 0(r1)
		halt
	`, Config{})
	res := run(t, m, 10)
	if res.Trap != isa.TrapMachine {
		t.Errorf("trap = %v, want machine", res.Trap)
	}
}

func TestBadPhysicalAddressMachineChecks(t *testing.T) {
	m := load(t, `
		li  r1, 0x00800000   ; beyond default 8 MiB
		ldw r2, 0(r1)
		halt
	`, Config{})
	res := run(t, m, 10)
	if res.Trap != isa.TrapMachine {
		t.Errorf("trap = %v, want machine", res.Trap)
	}
}

func TestDigestDeterministicAndSensitive(t *testing.T) {
	mk := func() *Machine {
		return load(t, `
			addi r1, r0, 42
			halt
		`, Config{})
	}
	a, b := mk(), mk()
	run(t, a, 10)
	run(t, b, 10)
	if a.Digest() != b.Digest() {
		t.Error("identical runs produced different digests")
	}
	if a.DigestMemory() != b.DigestMemory() {
		t.Error("identical runs produced different memory digests")
	}
	b.Regs[5] = 1
	if a.Digest() == b.Digest() {
		t.Error("digest insensitive to register change")
	}
	c := mk()
	run(t, c, 10)
	c.WriteBytes(0x100, []byte{1})
	if a.DigestMemory() == c.DigestMemory() {
		t.Error("memory digest insensitive to memory change")
	}
}

// TestRandomTLBDivergence reproduces the paper's §3.2 observation: two
// processors with non-deterministic TLB replacement, fed the SAME
// reference string, end up with DIFFERENT TLB contents — so a TLB miss
// trap occurs on one and not the other, breaking the Ordinary Instruction
// Assumption.
func TestRandomTLBDivergence(t *testing.T) {
	mkTLB := func(seed int64) *TLB {
		return NewTLB(4, NewRandomPolicy(seed))
	}
	refString := []uint32{1, 2, 3, 4, 5, 6, 7, 8, 1, 9, 2, 10, 3, 11}
	runRefs := func(tlb *TLB) []bool {
		var hits []bool
		for _, vpn := range refString {
			_, hit := tlb.Lookup(vpn)
			if !hit {
				tlb.Insert(TLBEntry{VPN: vpn, PPN: vpn, Flags: isa.TLBRead})
			}
			hits = append(hits, hit)
		}
		return hits
	}
	a := runRefs(mkTLB(1))
	b := runRefs(mkTLB(2))
	same := true
	for i := range a {
		if a[i] != b[i] {
			same = false
			break
		}
	}
	if same {
		t.Error("expected divergent hit/miss patterns with different chip seeds")
	}
	// And with a deterministic policy, identical seeds or not, behaviour
	// is identical (the hypervisor's TLB-takeover fix relies on this).
	c := runRefs(NewTLB(4, NewLRUPolicy(4)))
	d := runRefs(NewTLB(4, NewLRUPolicy(4)))
	for i := range c {
		if c[i] != d[i] {
			t.Fatal("LRU policy diverged")
		}
	}
}

func TestTLBReplacementPolicies(t *testing.T) {
	// LRU: fill 2-entry TLB, touch entry 1, insert third: evicts LRU.
	tlb := NewTLB(2, NewLRUPolicy(2))
	tlb.Insert(TLBEntry{VPN: 1, PPN: 1})
	tlb.Insert(TLBEntry{VPN: 2, PPN: 2})
	tlb.Lookup(1) // touch 1
	tlb.Insert(TLBEntry{VPN: 3, PPN: 3})
	if _, ok := tlb.Probe(2); ok {
		t.Error("LRU should have evicted vpn 2")
	}
	if _, ok := tlb.Probe(1); !ok {
		t.Error("LRU evicted recently used vpn 1")
	}
	// Round robin cycles.
	rr := NewTLB(2, NewRoundRobinPolicy())
	rr.Insert(TLBEntry{VPN: 1})
	rr.Insert(TLBEntry{VPN: 2})
	rr.Insert(TLBEntry{VPN: 3})
	rr.Insert(TLBEntry{VPN: 4})
	if _, ok := rr.Probe(3); !ok {
		t.Error("round robin evicted wrong slot")
	}
	// Insert with same VPN replaces in place.
	rr.Insert(TLBEntry{VPN: 4, PPN: 9})
	e, _ := rr.Probe(4)
	if e.PPN != 9 {
		t.Error("same-VPN insert did not replace")
	}
}

func TestITLBIInstruction(t *testing.T) {
	m := load(t, `
		li r1, (7 << 12) | 7    ; vpn 7, RWX, minPL 0
		li r2, (3 << 12)
		itlbi r1, r2
		halt
	`, Config{})
	run(t, m, 10)
	e, ok := m.TLB.Probe(7)
	if !ok {
		t.Fatal("entry not inserted")
	}
	if e.PPN != 3 || e.Flags&isa.TLBRead == 0 || e.Flags&isa.TLBWrite == 0 || e.Flags&isa.TLBExec == 0 {
		t.Errorf("entry = %+v", e)
	}
}

func TestStatsCounting(t *testing.T) {
	m := load(t, `
		addi r1, r0, 1
		ldw r2, 0x100(r0)
		stw r2, 0x104(r0)
		b next
	next:
		mfctl r3, iva
		halt
	`, Config{})
	run(t, m, 20)
	if m.Stats.Loads != 1 || m.Stats.Stores != 1 {
		t.Errorf("loads/stores = %d/%d", m.Stats.Loads, m.Stats.Stores)
	}
	if m.Stats.Branches != 1 {
		t.Errorf("branches = %d", m.Stats.Branches)
	}
	if m.Stats.Privileged == 0 {
		t.Error("privileged instructions not counted")
	}
	if m.Stats.Instructions != 6 {
		t.Errorf("instructions = %d, want 6", m.Stats.Instructions)
	}
}

func TestPCAlignmentTrap(t *testing.T) {
	m := New(Config{})
	m.PC = 2
	res := m.Step()
	if res.Trap != isa.TrapAlign {
		t.Errorf("trap = %v, want align", res.Trap)
	}
}

// Determinism property: two identical machines running the same program
// remain in identical states (digest per step) — the Ordinary Instruction
// Assumption holds for PA-lite with a deterministic TLB policy.
func TestLockstepDeterminismProperty(t *testing.T) {
	src := `
		addi r1, r0, 0
		addi r2, r0, 1
	loop:
		add  r3, r1, r2
		mov  r1, r2
		mov  r2, r3
		slti r4, r3, 10000
		stw  r3, 0x200(r0)
		ldw  r5, 0x200(r0)
		bne  r4, r0, loop
		halt
	`
	a := load(t, src, Config{})
	b := load(t, src, Config{})
	for i := 0; i < 100000; i++ {
		ra := a.Step()
		rb := b.Step()
		if ra != rb {
			t.Fatalf("step %d: results differ: %+v vs %+v", i, ra, rb)
		}
		if a.Digest() != b.Digest() {
			t.Fatalf("step %d: state digests differ", i)
		}
		if ra.Halted {
			break
		}
	}
}
