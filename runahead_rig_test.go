package hft

import (
	"context"
	"encoding/binary"
	"hash/fnv"
	"testing"

	"repro/internal/asm"
	"repro/internal/session"
)

// Crafted guests for two of run-ahead's rules (internal/hypervisor/
// busy.go) that random schedules do not reach. Both run through
// WithProgram, and each pins what it observes: the chunk-by-chunk
// reference arm (-tags spec) must produce the same values as the shipped
// build.

// asmGuest is a Program assembled from PA-lite source, booted at its
// origin in real mode with interrupts off. Its result is the word at
// 0x0F00.
type asmGuest struct{ p *asm.Program }

func newAsmGuest(t *testing.T, name, src string) asmGuest {
	t.Helper()
	p, err := asm.Assemble(name, src)
	if err != nil {
		t.Fatal(err)
	}
	return asmGuest{p}
}

func (g asmGuest) Image() (uint32, []uint32, uint32) { return g.p.Origin, g.p.Words, g.p.Origin }
func (asmGuest) Setup(GuestMemory)                   {}
func (asmGuest) Result(mem GuestMemory) ProgramResult {
	return ProgramResult{Checksum: mem.Load32(0x0F00)}
}

// captureHash is the FNV-1a hash of the cluster's capture sections: the
// state a checkpoint holds and Restore verifies (Save itself refuses a
// custom Program).
func captureHash(c *Cluster) uint64 {
	w := c.eng.Writer(session.SectionMagic)
	defer c.eng.Recycle(w)
	c.eng.EncodeSections(w)
	h := fnv.New64a()
	h.Write(w.Finish())
	return h.Sum64()
}

// edgeGuest starts a one-block write on disks 2, 1 and 0, in that order,
// then computes: MFTOD, and 512 more instructions without a trap, 200
// times. A chunk is 256 instructions, so each MFTOD traps on the edge of
// the second chunk after the one before it.
const edgeGuest = `
	li   r6, 0xF0003000   ; disk 2
	li   r3, 2            ; CmdWrite
	stw  r3, 0(r6)
	li   r3, 9            ; block
	stw  r3, 4(r6)
	li   r3, 0x4000       ; DMA address
	stw  r3, 8(r6)
	li   r3, 512          ; bytes
	stw  r3, 12(r6)
	stw  r3, 20(r6)       ; doorbell
	li   r6, 0xF0002000   ; disk 1
	li   r3, 2
	stw  r3, 0(r6)
	li   r3, 9
	stw  r3, 4(r6)
	li   r3, 0x4000
	stw  r3, 8(r6)
	li   r3, 512
	stw  r3, 12(r6)
	stw  r3, 20(r6)
	li   r6, 0xF0000000   ; disk 0
	li   r3, 2
	stw  r3, 0(r6)
	li   r3, 9
	stw  r3, 4(r6)
	li   r3, 0x4000
	stw  r3, 8(r6)
	li   r3, 512
	stw  r3, 12(r6)
	stw  r3, 20(r6)
	li   r9, 200
loop:
	mftod r13             ; traps; the next chunk starts after it
	add  r11, r11, r13
	addi r12, r12, 1
	li   r4, 253
spin:
	addi r4, r4, -1
	bne  r4, r0, spin
	addi r9, r9, -1
	bne  r9, r0, loop     ; 512 instructions since the add
	stw  r11, 0x0F00(r0)
	halt
`

// TestRunAheadEdgeRig: a trap on a chunk's edge, after chunks run ahead,
// with a capture's forwarding asleep between the edge chunk's poll and
// the trap. The three completions land close together under the original
// protocol, whose forwarding of a capture sleeps the link's 100 µs
// set-up: disk 2's is captured at a chunk's poll, disk 1's lands during
// its forwarding, after the poll has passed disk 1's place in the device
// table, and waits in the real EIRR, and disk 0's lands during the
// forwarding of disk 1's. With the waiting line allowed to start a run
// ahead, the next poll was the edge chunk's: it captured disk 1 and
// slept, and a pause inside that sleep found the machine had already
// taken the MFTOD trap that the chunked loop takes only after it (the
// machine's trap count one higher), so the capture differed from the
// reference arm's. A line that waits for its capture now keeps the run
// ahead off. The capture is hashed at 47 µs pauses over the first 2.8
// ms of four latency triples where it used to differ, and the result of
// each run waited out is folded in.
func TestRunAheadEdgeRig(t *testing.T) {
	g := newAsmGuest(t, "edge.s", edgeGuest)
	h := fnv.New64a()
	for _, d := range [][3]Duration{ // disk 0, 1, 2 write latencies
		{998_400, 954_200, 1_000_000},
		{1_038_400, 974_200, 1_000_000},
		{1_000_400, 996_200, 1_002_000},
		{962_400, 958_200, 1_004_000},
	} {
		c, err := NewCluster(WithProgram(g), WithEpochLength(32768), WithProtocol(ProtocolOld),
			WithDiskLatency(d[0], d[0]), WithDisk(DiskSpec{WriteLatency: d[1]}), WithDisk(DiskSpec{WriteLatency: d[2]}))
		if err != nil {
			t.Fatal(err)
		}
		for range 60 {
			if _, err := c.RunFor(47 * Microsecond); err != nil {
				t.Fatal(err)
			}
			binary.Write(h, binary.LittleEndian, captureHash(c))
		}
		res, err := c.Wait(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		c.Close()
		binary.Write(h, binary.LittleEndian, [2]uint64{uint64(res.Time), uint64(res.Checksum)})
	}
	if got, want := h.Sum64(), uint64(0x6f84fb4135be2be); got != want {
		t.Errorf("capture and result hash %#x, pinned %#x", got, want)
	}
}

// rewriter writes block 9 of disk 0 from a buffer whose first word it
// then keeps rewriting with a count falling from 40,000, without a trap,
// and polls the adapter until the write is done.
const rewriter = `
	li   r2, 0xF0000000   ; disk 0
	li   r8, 0x4000       ; buffer
	li   r9, 40000
	stw  r9, 0(r8)
	li   r3, 2            ; CmdWrite
	stw  r3, 0(r2)
	li   r3, 9            ; block
	stw  r3, 4(r2)
	stw  r8, 8(r2)        ; DMA address
	li   r3, 512
	stw  r3, 12(r2)
	stw  r3, 20(r2)       ; doorbell
loop:
	stw  r9, 0(r8)        ; rewrite the buffer
	addi r9, r9, -1
	bne  r9, r0, loop
wait:
	ldw  r3, 16(r2)       ; status
	andi r3, r3, 2        ; done?
	beq  r3, r0, wait
	halt
`

// TestRunAheadWithheldStartRig pins the bytes a deferred disk write
// carries: those in guest memory when the write is released, not those
// when the guest issued it. Under output commit the start is withheld
// until the issuing epoch's frame is acknowledged by both backups; with
// a window of two epochs the busy guest runs on into the next epoch and
// keeps rewriting the buffer, and the device latches it at the release.
// Run-ahead stays off while a start is withheld (busy.go); the count the
// disk holds is pinned, so the chunk-by-chunk reference arm must latch
// the same.
func TestRunAheadWithheldStartRig(t *testing.T) {
	g := newAsmGuest(t, "rewriter.s", rewriter)
	c, err := NewCluster(WithProgram(g), WithEpochLength(32768), WithBackups(2), WithLink(ATM155()),
		WithProtocol(ProtocolNew), WithOutputCommit(OutputCommit{Window: 2}),
		WithDiskLatency(200*Microsecond, 200*Microsecond))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	res, err := c.Wait(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	const atIssue, atRelease = 40000, 23623
	if got := binary.LittleEndian.Uint32(c.eng.Disks()[0].ReadBlockDirect(9)); got != atRelease || got == atIssue {
		t.Errorf("the write carried %d, pinned %d (%d was in the buffer at issue)", got, atRelease, atIssue)
	}
	if want := Duration(2_838_636); res.Time != want {
		t.Errorf("the run completed at %v, pinned %v", res.Time, want)
	}
}
