package replication

import (
	"bytes"
	"fmt"
	"testing"

	"repro/internal/asm"
	"repro/internal/hypervisor"
	"repro/internal/platform"
	"repro/internal/scsi"
	"repro/internal/sim"
)

// guestIO is a parametric guest: an interrupt-driven disk driver with
// uncertain-retry (the behaviour IO1/IO2 require of real drivers), a
// compute phase, NOPS block writes, a read-back verification, console
// output, and HALT. BREAK codes signal guest-detected failures.
func guestIO(nIter, nOps, firstBlk, count int) string {
	return fmt.Sprintf(`
	.equ MMIO,  0xF0000000
	.equ CONS,  0xF0001000
	.equ FLAG,  0x3000
	.equ BUF,   0x4000
	.equ BUF2,  0x6000
	.equ NITER, %d
	.equ NOPS,  %d
	.equ FIRST, %d
	.equ COUNT, %d

	start:
		li   r1, vectors
		mtctl iva, r1
		li   r1, 2              ; unmask disk line 1
		mtctl eiem, r1
		li   r1, 4              ; PSW.I
		mtctl ipsw, r1
		li   r1, main
		mtctl iia, r1
		rfi

	main:
		; ---- compute phase ----
		li   r5, NITER
		li   r6, 0
	sumloop:
		add  r6, r6, r5
		addi r5, r5, -1
		bne  r5, r0, sumloop

		; ---- write phase: NOPS blocks ----
		li   r14, 0             ; op index
	writeloop:
		; fill BUF words with 0xA0000000 | (op<<8) | wordindex
		li   r13, BUF
		li   r3, COUNT
		srli r3, r3, 2          ; words
		li   r4, 0
	fill:
		slli r7, r14, 8
		or   r7, r7, r4
		li   r8, 0xA0000000
		or   r7, r7, r8
		stw  r7, 0(r13)
		addi r13, r13, 4
		addi r4, r4, 1
		bne  r4, r3, fill
		; issue write of block FIRST+op
		li   r18, FIRST
		add  r18, r18, r14
		li   r19, 2             ; CmdWrite
		li   r15, BUF
		call do_io
		; progress marker on the console
		li   r17, 'w'
		call putc
		addi r14, r14, 1
		li   r3, NOPS
		bne  r14, r3, writeloop

		; ---- read-back phase: verify block FIRST ----
		li   r18, FIRST
		li   r19, 1             ; CmdRead
		li   r15, BUF2
		call do_io
		li   r13, BUF2
		ldw  r3, 0(r13)          ; word 0 of op 0
		li   r4, 0xA0000000
		bne  r3, r4, verify_fail
		ldw  r3, 4(r13)          ; word 1
		li   r4, 0xA0000001
		bne  r3, r4, verify_fail
		li   r17, 'O'
		call putc
		li   r17, 'K'
		call putc
		halt
	verify_fail:
		break 14

	; ---- disk driver: r18=block r19=cmd r15=buffer; retries on
	; uncertain completion, as IO2 demands of real drivers ----
	do_io:
	io_retry:
		li   r13, MMIO
		stw  r19, 0(r13)         ; cmd
		stw  r18, 4(r13)         ; block
		stw  r15, 8(r13)         ; addr
		li   r3, COUNT
		stw  r3, 12(r13)         ; count
		stw  r3, 20(r13)         ; doorbell
	io_spin:
		ldw  r3, FLAG(r0)
		beq  r3, r0, io_spin
		stw  r0, FLAG(r0)
		li   r13, MMIO
		ldw  r3, 16(r13)         ; status
		li   r4, 0xFFFFFFFF
		stw  r4, 16(r13)         ; clear (w1c)
		andi r4, r3, 4          ; StatusUncertain?
		bne  r4, r0, io_retry   ; retry: the device tolerates repetition
		andi r4, r3, 8          ; StatusError?
		bne  r4, r0, io_fail
		ret
	io_fail:
		break 13

	putc:
		li   r13, CONS
		stw  r17, 0(r13)
		ret

		.org 0x1800
	vectors:
		.space 32*11            ; vectors 0..10
		; ExtIntr (trap 11): ack lines, set driver flag
		mfctl r20, eirr
		mtctl eirr, r20
		addi r21, r0, 1
		stw  r21, FLAG(r0)
		rfi
	`, nIter, nOps, firstBlk, count)
}

// guestCPU is a compute-only guest: sums, prints a marker, halts.
func guestCPU(nIter int) string {
	return fmt.Sprintf(`
	.equ CONS,  0xF0001000
	.equ NITER, %d
	start:
		li   r5, NITER
		li   r6, 0
	sumloop:
		add  r6, r6, r5
		addi r5, r5, -1
		bne  r5, r0, sumloop
		li   r2, CONS
		li   r3, 'D'
		stw  r3, 0(r2)
		mftod r9
		halt
	`, nIter)
}

// cluster bundles a wired replicated pair.
type cluster struct {
	k       *sim.Kernel
	pair    *platform.Cluster // node 0 the primary, node 1 the backup
	pri     *Replica
	bak     *Replica
	prog    *asm.Program
	priDone sim.Time // virtual time the primary engine finished
	bakDone sim.Time // virtual time the backup engine finished
}

func newCluster(t *testing.T, seed int64, cfg platform.Config, proto Protocol, guest string) *cluster {
	t.Helper()
	c := &cluster{k: sim.NewKernel(seed)}
	t.Cleanup(func() { c.k.Shutdown() })
	if cfg.Hypervisor.EpochLength == 0 {
		cfg.Hypervisor.EpochLength = 4096
	}
	c.pair = platform.NewCluster(c.k, cfg, 2)
	c.prog = asm.MustAssemble("guest.s", guest)
	c.pair.Nodes[0].HV.Boot(c.prog.Origin, c.prog.Words, c.prog.Origin)
	c.pair.Nodes[1].HV.Boot(c.prog.Origin, c.prog.Words, c.prog.Origin)
	tx, rx := c.pair.Channel(0, 1)
	rc := Config{Protocol: proto, DetectTimeout: 50 * sim.Millisecond}
	c.pri = NewReplica(c.pair.Nodes[0].HV, nil, []Peer{{TX: tx, RX: rx}}, rc)
	c.bak = NewReplica(c.pair.Nodes[1].HV, []Peer{{TX: rx, RX: tx}}, nil, rc)
	return c
}

// timed wraps a process's step so that it records when it finishes.
func timed(step sim.StepFunc, at *sim.Time) sim.StepFunc {
	return func(p *sim.Proc) (sim.Time, sim.StepStatus) {
		d, st := step(p)
		if st == sim.StepDone {
			*at = p.Now()
		}
		return d, st
	}
}

// run starts both engines and runs the simulation to completion.
func (c *cluster) run(t *testing.T, bound sim.Time) {
	t.Helper()
	c.k.Start("primary", timed(c.pri.Run, &c.priDone))
	c.k.Start("backup", timed(c.bak.Run, &c.bakDone))
	c.k.RunUntil(bound)
	if !c.pair.Nodes[1].HV.Halted() && !c.pair.Nodes[0].HV.Halted() {
		t.Fatalf("neither guest halted within %v (pri pc=%#x bak pc=%#x)",
			bound, c.pair.Nodes[0].M.PC, c.pair.Nodes[1].M.PC)
	}
}

// bareRun executes the same guest on bare hardware — a cluster of one —
// returning console output, completion time and the platform.
func bareRun(t *testing.T, seed int64, cfg platform.Config, guest string) (string, sim.Time, *platform.Cluster) {
	t.Helper()
	k := sim.NewKernel(seed)
	t.Cleanup(k.Shutdown)
	c := platform.NewCluster(k, cfg, 1)
	bare := hypervisor.NewBare(c.Nodes[0].M)
	prog := asm.MustAssemble("guest.s", guest)
	bare.Boot(prog.Origin, prog.Words, prog.Origin)
	var done sim.Time
	k.Start("bare", timed(bare.Run, &done))
	k.RunUntil(100 * sim.Second)
	if !bare.Halted() {
		t.Fatalf("bare guest did not halt (pc=%#x)", c.Nodes[0].M.PC)
	}
	return c.Console.Output(), done, c
}

func TestReplicatedCPUWorkloadNoFailure(t *testing.T) {
	guest := guestCPU(20000)
	c := newCluster(t, 1, platform.Config{}, ProtocolOld, guest)
	c.run(t, 100*sim.Second)

	if !c.pair.Nodes[0].HV.Halted() || !c.pair.Nodes[1].HV.Halted() {
		t.Fatal("both guests should halt")
	}
	if c.bak.Stats.Divergences != 0 {
		t.Errorf("divergences = %d", c.bak.Stats.Divergences)
	}
	// Same architectural result on both.
	if c.pair.Nodes[0].M.Regs[6] != c.pair.Nodes[1].M.Regs[6] {
		t.Error("sum registers differ")
	}
	// Claim (1): backup generated no environment interactions — the
	// shared transcript holds exactly one copy of the guest's output.
	if c.pair.Console.Output() != "D" {
		t.Errorf("console = %q, want D", c.pair.Console.Output())
	}
	// The backup executed the same epochs.
	if c.pri.Stats.Epochs == 0 || c.bak.Stats.Epochs < c.pri.Stats.Epochs {
		t.Errorf("epochs: primary %d backup %d", c.pri.Stats.Epochs, c.bak.Stats.Epochs)
	}
}

func TestReplicatedMatchesBareBehaviour(t *testing.T) {
	guest := guestCPU(5000)
	bareOut, bareTime, _ := bareRun(t, 1, platform.Config{}, guest)
	c := newCluster(t, 1, platform.Config{}, ProtocolOld, guest)
	c.run(t, 100*sim.Second)
	if got := c.pair.Console.Output(); got != bareOut {
		t.Errorf("console: replicated %q vs bare %q", got, bareOut)
	}
	if bareTime <= 0 {
		t.Fatal("bare time not recorded")
	}
	// Replication costs time: normalized performance > 1.
	if c.priDone <= bareTime {
		t.Errorf("replicated run (%v) not slower than bare (%v)?", c.priDone, bareTime)
	}
}

func TestReplicatedDiskIO(t *testing.T) {
	// Short disk latencies keep the test fast; semantics unchanged.
	cfg := platform.Config{
		Disk: scsi.DiskConfig{ReadLatency: 200 * sim.Microsecond, WriteLatency: 250 * sim.Microsecond},
	}
	guest := guestIO(100, 3, 10, 512)
	c := newCluster(t, 1, cfg, ProtocolOld, guest)
	c.run(t, 100*sim.Second)

	if c.bak.Stats.Divergences != 0 {
		t.Fatalf("divergences = %d", c.bak.Stats.Divergences)
	}
	if out := c.pair.Console.Output(); out != "wwwOK" {
		t.Errorf("console = %q, want wwwOK (exactly one copy)", out)
	}
	// Only the primary's host touched the disk.
	for _, rec := range c.pair.Disks[0].Log {
		if rec.Host != 0 {
			t.Errorf("disk op from host %d while primary alive", rec.Host)
		}
	}
	// Disk contents correct.
	blk := c.pair.Disks[0].ReadBlockDirect(10)
	if got := le32(blk[0:4]); got != 0xA0000000 {
		t.Errorf("block 10 word 0 = %#x", got)
	}
	// Read data was forwarded to the backup: its memory holds the same
	// read-back buffer.
	priBuf := c.pair.Nodes[0].M.ReadBytes(0x6000, 512)
	bakBuf := c.pair.Nodes[1].M.ReadBytes(0x6000, 512)
	if !bytes.Equal(priBuf, bakBuf) {
		t.Error("read DMA data differs between replicas")
	}
	if c.pri.Stats.IntsForwarded == 0 || c.bak.Stats.IntsReceived != c.pri.Stats.IntsForwarded {
		t.Errorf("interrupt forwarding: sent %d received %d",
			c.pri.Stats.IntsForwarded, c.bak.Stats.IntsReceived)
	}
}

func le32(b []byte) uint32 {
	return uint32(b[0]) | uint32(b[1])<<8 | uint32(b[2])<<16 | uint32(b[3])<<24
}

func TestFailoverMidCompute(t *testing.T) {
	// Fail the primary during the compute phase; the backup must take
	// over and finish the workload, interacting with the environment
	// from the failure point on (claim 2 of §2).
	cfg := platform.Config{
		Disk: scsi.DiskConfig{ReadLatency: 200 * sim.Microsecond, WriteLatency: 250 * sim.Microsecond},
	}
	guest := guestIO(50000, 2, 20, 512)
	c := newCluster(t, 1, cfg, ProtocolOld, guest)
	// Compute phase: ~150k instructions ≈ 3 ms of guest time plus
	// boundary overhead; fail at 1 ms — mid-compute.
	c.k.At(1*sim.Millisecond, c.pri.Failstop)
	c.run(t, 200*sim.Second)

	if !c.bak.Promoted() {
		t.Fatal("backup did not promote")
	}
	if !c.pair.Nodes[1].HV.Halted() {
		t.Fatal("promoted backup did not finish the workload")
	}
	// The workload completed correctly: disk holds both blocks and the
	// verification passed (console ends with OK from the backup).
	out := c.pair.Console.Output()
	if len(out) < 2 || out[len(out)-2:] != "OK" {
		t.Errorf("console = %q, want ...OK", out)
	}
	blk := c.pair.Disks[0].ReadBlockDirect(20)
	if got := le32(blk[0:4]); got != 0xA0000000 {
		t.Errorf("block 20 word 0 = %#x", got)
	}
	// After promotion the environment sees host 1.
	sawHost1 := false
	for _, rec := range c.pair.Disks[0].Log {
		if rec.Host == 1 {
			sawHost1 = true
		}
	}
	if !sawHost1 {
		t.Error("promoted backup never touched the disk")
	}
}

func TestFailoverTwoGeneralsWindow(t *testing.T) {
	// The §2.2 case (ii) window: the primary fails AFTER issuing a disk
	// write but BEFORE the completion is relayed. P7 must synthesize an
	// uncertain interrupt; the guest driver retries; the disk ends up
	// with exactly the intended contents, the duplicate being an
	// identical-content repetition that IO2 permits.
	cfg := platform.Config{
		Disk: scsi.DiskConfig{ReadLatency: 5 * sim.Millisecond, WriteLatency: 10 * sim.Millisecond},
	}
	guest := guestIO(100, 1, 30, 512)
	c := newCluster(t, 1, cfg, ProtocolOld, guest)
	// The write is issued within ~1 ms of boot (short compute phase,
	// MMIO setup ≈ a dozen simulated instructions); it completes at
	// ~+10 ms. Failing at 3 ms lands between doorbell and completion.
	c.k.At(3*sim.Millisecond, c.pri.Failstop)
	c.run(t, 200*sim.Second)

	if !c.bak.Promoted() {
		t.Fatal("backup did not promote")
	}
	if c.bak.Stats.UncertainSynth == 0 {
		t.Error("P7 synthesized no uncertain interrupts")
	}
	if !c.pair.Nodes[1].HV.Halted() {
		t.Fatal("workload did not complete after failover")
	}
	out := c.pair.Console.Output()
	if len(out) < 2 || out[len(out)-2:] != "OK" {
		t.Errorf("console = %q, want ...OK", out)
	}
	// Environment consistency: every committed write of block 30 has
	// identical content (repetition of identical data only).
	hist := c.pair.Disks[0].WriteHistory(30)
	if len(hist) == 0 {
		t.Fatal("no committed writes")
	}
	for i := 1; i < len(hist); i++ {
		if hist[i] != hist[0] {
			t.Errorf("write history has differing contents: %v", hist)
		}
	}
	blk := c.pair.Disks[0].ReadBlockDirect(30)
	if got := le32(blk[0:4]); got != 0xA0000000 {
		t.Errorf("block 30 word 0 = %#x", got)
	}
}

func TestFailoverBeforeIO(t *testing.T) {
	// Primary fails before ever reaching the I/O phase: the backup's
	// suppressed doorbells are re-driven purely by P7 (the primary never
	// issued anything). The disk must still end up correct.
	cfg := platform.Config{
		Disk: scsi.DiskConfig{ReadLatency: 1 * sim.Millisecond, WriteLatency: 1 * sim.Millisecond},
	}
	guest := guestIO(100000, 1, 40, 512)
	c := newCluster(t, 1, cfg, ProtocolOld, guest)
	c.k.At(500*sim.Microsecond, c.pri.Failstop) // mid-compute, pre-I/O
	c.run(t, 200*sim.Second)
	if !c.bak.Promoted() || !c.pair.Nodes[1].HV.Halted() {
		t.Fatal("failover or completion failed")
	}
	// Only the backup's host ever touched the disk.
	for _, rec := range c.pair.Disks[0].Log {
		if rec.Host != 1 {
			t.Errorf("unexpected disk op from host %d", rec.Host)
		}
	}
	blk := c.pair.Disks[0].ReadBlockDirect(40)
	if got := le32(blk[0:4]); got != 0xA0000000 {
		t.Errorf("block 40 word 0 = %#x", got)
	}
}

func TestNewProtocolCorrectAndFaster(t *testing.T) {
	guest := guestCPU(20000)
	old := newCluster(t, 1, platform.Config{}, ProtocolOld, guest)
	old.run(t, 100*sim.Second)
	oldTime := old.priDone

	nw := newCluster(t, 1, platform.Config{}, ProtocolNew, guest)
	nw.run(t, 100*sim.Second)
	newTime := nw.priDone

	if nw.bak.Stats.Divergences != 0 {
		t.Errorf("new protocol divergences = %d", nw.bak.Stats.Divergences)
	}
	if nw.pair.Nodes[0].M.Regs[6] != old.pair.Nodes[0].M.Regs[6] {
		t.Error("results differ between protocols")
	}
	// §4.3/Table 1: dropping the boundary ack wait speeds things up.
	if newTime >= oldTime {
		t.Errorf("new protocol (%v) not faster than old (%v)", newTime, oldTime)
	}
	if old.pri.Stats.AckWaits == 0 {
		t.Error("old protocol never waited for acks")
	}
}

func TestNewProtocolIOGate(t *testing.T) {
	cfg := platform.Config{
		Disk: scsi.DiskConfig{ReadLatency: 200 * sim.Microsecond, WriteLatency: 250 * sim.Microsecond},
	}
	guest := guestIO(100, 2, 50, 512)
	c := newCluster(t, 1, cfg, ProtocolNew, guest)
	c.run(t, 100*sim.Second)
	if c.bak.Stats.Divergences != 0 {
		t.Errorf("divergences = %d", c.bak.Stats.Divergences)
	}
	// The §4.3 invariant: I/O initiation awaited acknowledgements.
	if c.pri.Stats.IOGateWaits == 0 {
		t.Error("I/O gate never engaged")
	}
	if out := c.pair.Console.Output(); out != "wwOK" {
		t.Errorf("console = %q", out)
	}
}

func TestNewProtocolFailoverWithLostMessages(t *testing.T) {
	// §4.3's hazard scenario: messages are lost AND the primary fails.
	// Because the primary could not have issued I/O without acks, the
	// backup's divergent re-execution is invisible to the environment.
	cfg := platform.Config{
		Disk: scsi.DiskConfig{ReadLatency: 1 * sim.Millisecond, WriteLatency: 1 * sim.Millisecond},
	}
	guest := guestIO(20000, 1, 60, 512)
	c := newCluster(t, 1, cfg, ProtocolNew, guest)
	// Drop everything the primary sends from 0.2 ms on, then fail it.
	c.k.At(200*sim.Microsecond, func() { c.pair.Links[0][1].AtoB.DropNext(1 << 30) })
	c.k.At(2*sim.Millisecond, c.pri.Failstop)
	c.run(t, 200*sim.Second)
	if !c.bak.Promoted() || !c.pair.Nodes[1].HV.Halted() {
		t.Fatal("failover or completion failed")
	}
	blk := c.pair.Disks[0].ReadBlockDirect(60)
	if got := le32(blk[0:4]); got != 0xA0000000 {
		t.Errorf("block 60 word 0 = %#x", got)
	}
	hist := c.pair.Disks[0].WriteHistory(60)
	for i := 1; i < len(hist); i++ {
		if hist[i] != hist[0] {
			t.Errorf("environment saw divergent writes: %v", hist)
		}
	}
}

func TestDeviceTransientsUnderReplication(t *testing.T) {
	// Real device transients (uncertain completions from the disk
	// itself) must be handled identically by both replicas: the
	// captured status is forwarded, both deliver CHECK_CONDITION, both
	// guests retry in lockstep.
	cfg := platform.Config{
		Disk: scsi.DiskConfig{ReadLatency: 200 * sim.Microsecond, WriteLatency: 250 * sim.Microsecond},
	}
	guest := guestIO(100, 2, 70, 512)
	c := newCluster(t, 1, cfg, ProtocolOld, guest)
	c.pair.Disks[0].InjectUncertainNext(1) // first op reports CHECK_CONDITION
	c.run(t, 100*sim.Second)
	if c.bak.Stats.Divergences != 0 {
		t.Fatalf("divergences = %d under device transient", c.bak.Stats.Divergences)
	}
	if out := c.pair.Console.Output(); out != "wwOK" {
		t.Errorf("console = %q", out)
	}
	// The retry means the disk log has one more op than the workload's
	// nominal count (2 writes + 1 read + 1 retried op).
	if len(c.pair.Disks[0].Log) != 4 {
		t.Errorf("disk log has %d ops, want 4 (retry included)", len(c.pair.Disks[0].Log))
	}
}

func TestDeterministicReplication(t *testing.T) {
	// The whole replicated system is deterministic: identical seeds give
	// identical completion times, digests, and console output.
	run := func() (sim.Time, string, uint64) {
		guest := guestIO(500, 2, 80, 512)
		cfg := platform.Config{
			Disk: scsi.DiskConfig{ReadLatency: 300 * sim.Microsecond, WriteLatency: 300 * sim.Microsecond},
		}
		c := newCluster(t, 42, cfg, ProtocolOld, guest)
		c.run(t, 100*sim.Second)
		return c.priDone, c.pair.Console.Output(), c.pair.Nodes[0].HV.Digest()
	}
	t1, o1, d1 := run()
	t2, o2, d2 := run()
	if t1 != t2 || o1 != o2 || d1 != d2 {
		t.Errorf("nondeterministic: (%v,%q,%x) vs (%v,%q,%x)", t1, o1, d1, t2, o2, d2)
	}
}

func TestHsimConstantMatchesPaper(t *testing.T) {
	if hypervisor.HSim != 15120*sim.Nanosecond {
		t.Errorf("hsim = %v, want 15.12us", hypervisor.HSim)
	}
}
