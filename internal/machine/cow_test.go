// COW base-image tests: shards sharing one immutable image must be
// perfectly isolated (differential against private RAM, including
// self-modifying code that forces decode invalidation across the COW
// fault), snapshots must round-trip across the sharing boundary, and a
// thousand shards must cost a small fraction of a private RAM copy
// each.
package machine_test

import (
	"encoding/binary"
	"fmt"
	"runtime"
	"testing"

	"repro/internal/asm"
	"repro/internal/machine"
)

// smcProgram is a self-modifying loop whose behavior is steered by a
// parameter block on a separate page: two instruction variants are
// alternately stored over an executing slot, so every iteration forces
// a COW-aware decode invalidation of the code page.
func smcProgram(t *testing.T) *asm.Program {
	t.Helper()
	w1 := cowWord(t, "addi r3, r3, 1")
	w2 := cowWord(t, "xor  r3, r3, r5")
	src := fmt.Sprintf(`
		la   r10, params
		ldw  r7, 0(r10)   ; variant A instruction word
		ldw  r8, 4(r10)   ; variant B instruction word
		ldw  r5, 8(r10)   ; iteration count
		la   r6, site
	loop:
		stw  r7, 0(r6)
	site:
		nop              ; overwritten by the store two words back
		stw  r8, 0(r6)
		stw  r3, 12(r10) ; scribble the running value next to the params
		xor  r7, r7, r8
		xor  r8, r7, r8
		xor  r7, r7, r8
		addi r5, r5, -1
		bne  r5, r0, loop
		halt
	.org 0x2000
	params:
		.word %#x, %#x, 0, 0
	`, w1, w2)
	p, err := asm.Assemble("cow.s", src)
	if err != nil {
		t.Fatalf("assemble: %v", err)
	}
	return p
}

func cowWord(t *testing.T, src string) uint32 {
	t.Helper()
	p, err := asm.Assemble("word.s", src)
	if err != nil {
		t.Fatal(err)
	}
	return p.Words[0]
}

// imageFor resolves the base image holding the program in a
// memBytes-sized RAM.
func imageFor(p *asm.Program, memBytes uint32) *machine.BaseImage {
	return machine.ProgramImage(p.Origin, p.Words, memBytes)
}

// bootCOW creates a machine for the program — over img, or over the
// all-zero image when img is nil (the control: loading then faults the
// program's pages private) — and loads/starts the program.
func bootCOW(p *asm.Program, img *machine.BaseImage, memBytes uint32) *machine.Machine {
	m := machine.New(machine.Config{Image: img, MemBytes: memBytes})
	m.LoadProgram(p.Origin, p.Words, p.Origin)
	return m
}

// configure writes a shard's divergent parameters (iteration count and
// a per-shard xor seed in r5's slot via the variant words' data page).
func configureShard(m *machine.Machine, iters uint32) {
	var b [4]byte
	binary.LittleEndian.PutUint32(b[:], iters)
	m.WriteBytes(0x2000+8, b[:])
}

func runToHalt(t *testing.T, m *machine.Machine, max uint64) {
	t.Helper()
	for !m.Halted() && m.Cycles() < max {
		m.Run(10_000)
	}
	if !m.Halted() {
		t.Fatalf("no halt within %d cycles (PC=%#x)", max, m.PC)
	}
}

// TestCOWIsolationDifferential runs two shards off ONE base image with
// divergent self-modifying workloads, alongside a private-RAM control
// for each: every shard's final memory digest must be byte-identical
// to its control's, the shards must actually have diverged from each
// other, and the base image must come out untouched.
func TestCOWIsolationDifferential(t *testing.T) {
	p := smcProgram(t)
	const mem = 1 << 20
	img := imageFor(p, mem)
	pristine := bootCOW(p, img, mem).DigestMemory()

	type shard struct {
		iters uint32
		cow   *machine.Machine
		priv  *machine.Machine
	}
	shards := []shard{{iters: 40}, {iters: 173}}
	for i := range shards {
		s := &shards[i]
		s.cow = bootCOW(p, img, mem)
		s.priv = bootCOW(p, nil, mem)
		configureShard(s.cow, s.iters)
		configureShard(s.priv, s.iters)
	}
	for i := range shards {
		s := &shards[i]
		runToHalt(t, s.cow, 4_000_000)
		runToHalt(t, s.priv, 4_000_000)
		if got, want := s.cow.DigestMemory(), s.priv.DigestMemory(); got != want {
			t.Fatalf("shard %d: COW memory digest %#x, private control %#x", i, got, want)
		}
		if s.cow.Digest() != s.priv.Digest() {
			t.Fatalf("shard %d: full state digest diverges from private control", i)
		}
		if s.cow.SharedPages() == 0 {
			t.Fatalf("shard %d: no pages left shared — COW never engaged", i)
		}
	}
	if shards[0].cow.DigestMemory() == shards[1].cow.DigestMemory() {
		t.Fatal("divergent workloads produced identical memory — the differential is vacuous")
	}
	// The base image is immutable: a shard booted after the others ran
	// sees exactly the pristine contents.
	if got := bootCOW(p, img, mem).DigestMemory(); got != pristine {
		t.Fatalf("base image mutated by shard runs: digest %#x, pristine %#x", got, pristine)
	}
}

// TestCOWSnapshotRoundTrip captures a COW-backed machine mid-run
// (pages split between shared and privatized) and restores it onto a
// fresh COW machine AND onto a private machine: both must match the
// source byte-for-byte, now and at halt.
func TestCOWSnapshotRoundTrip(t *testing.T) {
	p := smcProgram(t)
	const mem = 1 << 20
	img := imageFor(p, mem)

	src := bootCOW(p, img, mem)
	configureShard(src, 200)
	for src.Cycles() < 500 && !src.Halted() {
		src.Step()
	}
	if src.Halted() {
		t.Fatal("program halted before the mid-run capture point")
	}
	st := src.CaptureState()

	cow := bootCOW(p, img, mem)
	if err := cow.RestoreState(st); err != nil {
		t.Fatalf("restore onto COW machine: %v", err)
	}
	priv := bootCOW(p, nil, mem)
	if err := priv.RestoreState(st); err != nil {
		t.Fatalf("restore onto private machine: %v", err)
	}
	for name, m := range map[string]*machine.Machine{"cow": cow, "private": priv} {
		if m.Digest() != src.Digest() || m.DigestMemory() != src.DigestMemory() {
			t.Fatalf("restored %s machine differs from source before resuming", name)
		}
	}
	if cow.SharedPages() == 0 {
		t.Fatal("restore privatized every page — the re-share path never engaged")
	}

	// All three continue in lockstep to halt.
	for !src.Halted() {
		src.Step()
		cow.Step()
		priv.Step()
		if src.Digest() != cow.Digest() || src.Digest() != priv.Digest() {
			t.Fatalf("digests diverge at cycle %d", src.Cycles())
		}
	}
	if !cow.Halted() || !priv.Halted() {
		t.Fatal("restored machines did not halt with the source")
	}
	if src.DigestMemory() != cow.DigestMemory() || src.DigestMemory() != priv.DigestMemory() {
		t.Fatal("final memory digests diverge")
	}
}

// TestThousandSharedMachines is the fleet-scale acceptance check: 1000
// machines boot off one 8 MiB base image, each costing a small
// fraction of a private RAM copy, all byte-identical to a private
// control.
func TestThousandSharedMachines(t *testing.T) {
	if testing.Short() {
		t.Skip("1000-machine boot is not -short material")
	}
	p := smcProgram(t)
	const mem = 8 << 20
	img := imageFor(p, mem)
	control := bootCOW(p, nil, mem)
	want := control.DigestMemory()

	runtime.GC()
	var before runtime.MemStats
	runtime.ReadMemStats(&before)

	const n = 1000
	ms := make([]*machine.Machine, n)
	for i := range ms {
		ms[i] = bootCOW(p, img, mem)
	}

	runtime.GC()
	var after runtime.MemStats
	runtime.ReadMemStats(&after)
	perShard := (after.HeapAlloc - before.HeapAlloc) / n
	// A private copy is 8 MiB of RAM alone. A shared shard carries two
	// page-indexed tables (frame pointers and decoded-page pointers, 16
	// bytes per page — 32 KB at this RAM size, 4 KB at the fleet's 1 MiB)
	// and must fit everything else — the machine struct, the TLB, the
	// ownership bitmap — in 8 KB: the word-decode memo (64 KB) is not
	// part of a machine that has not single-stepped.
	const npages = mem >> 12
	if ceiling := uint64(16*npages + 8<<10); perShard > ceiling {
		t.Fatalf("per-shard heap %d bytes, ceiling %d (private copy: %d)", perShard, ceiling, mem)
	}
	t.Logf("heap per shard: %d bytes (private copy: %d)", perShard, mem)

	for _, i := range []int{0, 1, n / 2, n - 1} {
		if got := ms[i].DigestMemory(); got != want {
			t.Fatalf("shard %d boots with digest %#x, private control %#x", i, got, want)
		}
	}
	// Dirtying one shard must not leak into its neighbors or the image.
	ms[0].WriteBytes(0x3000, []byte{0xde, 0xad, 0xbe, 0xef})
	if got := ms[1].DigestMemory(); got != want {
		t.Fatal("write to shard 0 leaked into shard 1")
	}
	for _, m := range ms {
		m.Release()
	}
}
