package hypervisor

import (
	"bytes"
	"fmt"
	"testing"

	"repro/internal/asm"
	"repro/internal/console"
	"repro/internal/machine"
	"repro/internal/scsi"
	"repro/internal/sim"
	"repro/internal/snapshot"
)

// bareWaiter reads three disk blocks, spinning on a flag the completion
// handler sets, computes for a while without waiting and reads the clock
// (MFTOD: a stretch retired ahead that is not a wait would read it stale),
// then echoes console input, polling the status register, until EOT. The
// interval timer ticks throughout (its handler counts in r12 and re-arms
// it), so a timer trap lands inside waits retired ahead.
const bareWaiter = `
	.equ MMIO, 0xF0000000
	.equ FLAG, 0x3000
	li   r1, vectors
	mtctl iva, r1
	li   r1, 3            ; lines 0 (timer) and 1 (disk)
	mtctl eiem, r1
	li   r1, 20000
	mtctl itmr, r1
	li   r1, 4            ; PSW.I, via rfi
	mtctl ipsw, r1
	li   r1, cont
	mtctl iia, r1
	rfi
cont:
	li   r2, MMIO
	li   r9, 3
next:
	stw  r0, FLAG(r0)
	li   r3, 1            ; CmdRead
	stw  r3, 0(r2)
	stw  r9, 4(r2)        ; block
	li   r3, 0x4000
	stw  r3, 8(r2)
	li   r3, 512
	stw  r3, 12(r2)
	stw  r3, 20(r2)       ; doorbell
spin:
	ldw  r4, FLAG(r0)
	beq  r4, r0, spin
	addi r9, r9, -1
	bne  r9, r0, next
	li   r9, 2000
work:
	addi r10, r10, 3
	addi r9, r9, -1
	bne  r9, r0, work
	mftod r13
poll:
	ldw  r4, 0x1004(r2)   ; console status
	andi r4, r4, 2        ; input pending?
	beq  r4, r0, poll
	ldw  r5, 0x1008(r2)   ; pop it
	stw  r5, 0x1000(r2)   ; echo it
	addi r5, r5, -4       ; EOT?
	bne  r5, r0, poll
	halt

	.org 0x1800
vectors:
	.space 32*11
	mfctl r20, eirr
	mtctl eirr, r20
	andi r21, r20, 1
	beq  r21, r0, disk
	addi r12, r12, 1
	li   r21, 20000
	mtctl itmr, r21
disk:
	andi r21, r20, 2
	beq  r21, r0, done
	addi r21, r0, 1
	stw  r21, FLAG(r0)
done:
	rfi
`

// bareRig is a bare machine with a disk and a console on its own kernel;
// input arrives on the console a byte at a time, 613 µs apart.
type bareRig struct {
	k    *sim.Kernel
	m    *machine.Machine
	cons *console.Console
	b    *Bare
}

func newBareRig(t *testing.T, src, input string) *bareRig {
	t.Helper()
	r := &bareRig{k: sim.NewKernel(1), cons: console.New()}
	t.Cleanup(r.k.Shutdown)
	r.m = machine.New(machine.Config{TODSource: func() uint32 { return uint32(r.k.Now() / instructionTime) }})
	disk := scsi.NewDisk(r.k, scsi.DiskConfig{ReadLatency: 700 * sim.Microsecond})
	mux := machine.NewBusMux()
	mux.Map("scsi0", adapterBase, scsi.AdapterWindow, disk.NewAdapter(0, r.m, func() { r.m.RaiseIRQ(diskLine) }))
	mux.Map("console", consoleBase, console.Window, r.cons.NewPort(nil))
	r.m.Bus = mux
	var in []console.Input
	for i, c := range []byte(input) {
		in = append(in, console.Input{At: sim.Time(i+4) * 613 * sim.Microsecond, Data: []byte{c}})
	}
	r.cons.Schedule(r.k, in)
	p := asm.MustAssemble("bare.s", src)
	r.b = NewBare(r.m)
	r.b.Boot(p.Origin, p.Words, p.Origin)
	r.k.Start("bare", r.b.Run)
	return r
}

// state is what a pause can see of the rig.
func (r *bareRig) state() ([]byte, string) {
	w := snapshot.NewWriter(snapshot.TransferMagic)
	r.m.CaptureState().Encode(w)
	return w.Finish(), fmt.Sprintf("now %d cycles %d pc %#x %+v console %q", r.k.Now(), r.m.Cycles(), r.m.PC, r.m.Stats, r.cons.Output())
}

// TestBareWaitAhead runs bareWaiter twice in slices, the reference under
// debugNoStorm (chunk by chunk), and compares the two at every pause:
// virtual time, cycles, PC, Stats, the encoded machine state and the
// console's transcript. Fixed slices put pauses at many phases of the
// chunk lattice; edge pauses one nanosecond before the second chunk after
// the next pending wake, where retiring strictly before the loud instant
// and retiring up to it part ways. The unsliced pair must also have
// retired most of its waits ahead.
func TestBareWaitAhead(t *testing.T) {
	const edge = -1
	c := sim.Time(chunkSize) * instructionTime
	for _, slice := range []sim.Time{37 * sim.Microsecond, 53 * sim.Microsecond, sim.Millisecond + 3, edge, 0} {
		t.Run(fmt.Sprint("slice ", slice), func(t *testing.T) {
			ref, on := newBareRig(t, bareWaiter, "wait\x04"), newBareRig(t, bareWaiter, "wait\x04")
			for pause := 0; !ref.b.Halted(); pause++ {
				until := ref.k.Now() + slice
				if slice == edge {
					next, _ := ref.k.NextEventTime()
					until = next + 2*c - 1
				}
				for i, r := range []*bareRig{ref, on} {
					debugNoStorm = i == 0
					if slice == 0 {
						r.k.Run()
					} else {
						r.k.RunUntil(until)
					}
				}
				debugNoStorm = false
				a, as := ref.state()
				b, bs := on.state()
				if !bytes.Equal(a, b) || as != bs {
					t.Fatalf("pause %d differs from the reference:\n ref %s\n on  %s", pause, as, bs)
				}
				if ref.k.Now() > sim.Second {
					t.Fatalf("no halt by %v", ref.k.Now())
				}
			}
			if !on.b.Halted() || on.cons.Output() != "wait\x04" || on.m.Regs[12] < 10 {
				t.Fatalf("halted %v, console %q, %d timer ticks", on.b.Halted(), on.cons.Output(), on.m.Regs[12])
			}
			if slice == 0 {
				refCalls, onCalls := ref.m.MemoStats().Calls, on.m.MemoStats().Calls
				t.Logf("%d instructions in %d Run calls, %d chunk by chunk", on.m.Stats.Instructions, onCalls, refCalls)
				if 4*onCalls > refCalls {
					t.Errorf("%d Run calls against the reference's %d: the waits were not retired ahead", onCalls, refCalls)
				}
			}
		})
	}
}

// TestBareHungGuest: a guest that waits on a flag nothing will ever set
// still trips the instruction cap on the chunk it always did — cycles
// 10,000,000,256 after 200.000005 s of virtual time — without executing
// its wait chunk by chunk on the way there.
func TestBareHungGuest(t *testing.T) {
	r := newBareRig(t, `
	loop:
		ldw  r4, 0x3000(r0)
		beq  r4, r0, loop
		halt
	`, "")
	var msg any
	func() {
		defer func() { msg = recover() }()
		r.k.Run()
	}()
	const cycles = 10_000_000_256
	if want := "bare: guest exceeded 10000000000 instructions"; msg != want {
		t.Fatalf("panic %v, want %q", msg, want)
	}
	if r.m.Cycles() != cycles || r.k.Now() != cycles*instructionTime {
		t.Errorf("cap tripped at cycles %d, %v; want %d, %v", r.m.Cycles(), r.k.Now(), uint64(cycles), cycles*instructionTime)
	}
	if calls := r.m.MemoStats().Calls; calls > 1000 {
		t.Errorf("%d Run calls: the wait ran chunk by chunk", calls)
	}
}
