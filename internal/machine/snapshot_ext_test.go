// Snapshot capture/restore tests: a restored machine must be
// indistinguishable from the original — including TLB replacement
// recency — and restoring over a machine that previously executed
// DIFFERENT code must invalidate its decoded-page cache.
package machine_test

import (
	"testing"

	"repro/internal/guest"
	"repro/internal/machine"
)

// bootGuest builds a machine running the guest kernel with workload w.
func bootGuest(cfg machine.Config, w guest.Workload) *machine.Machine {
	p := guest.Program()
	m := machine.New(cfg)
	m.LoadProgram(p.Origin, p.Words, 0)
	guest.Configure(m, w)
	return m
}

// compareMachines asserts full observable equality.
func compareMachines(t *testing.T, tag string, a, b *machine.Machine) {
	t.Helper()
	if a.Digest() != b.Digest() {
		t.Fatalf("%s: digests diverge: %#x vs %#x (pc %#x vs %#x)", tag, a.Digest(), b.Digest(), a.PC, b.PC)
	}
	if a.DigestMemory() != b.DigestMemory() {
		t.Fatalf("%s: memory digests diverge", tag)
	}
	if a.Cycles() != b.Cycles() {
		t.Fatalf("%s: cycles diverge: %d vs %d", tag, a.Cycles(), b.Cycles())
	}
	if a.Stats != b.Stats {
		t.Fatalf("%s: stats diverge:\n  a: %+v\n  b: %+v", tag, a.Stats, b.Stats)
	}
	if a.TLB.Stats != b.TLB.Stats {
		t.Fatalf("%s: TLB stats diverge:\n  a: %+v\n  b: %+v", tag, a.TLB.Stats, b.TLB.Stats)
	}
}

// TestCaptureRestoreMidRun captures a machine mid-workload, restores
// into a fresh machine, and drives both onward in lockstep: every
// subsequent chunk must stay bit-identical (registers, memory, stats,
// TLB replacement behaviour).
func TestCaptureRestoreMidRun(t *testing.T) {
	cfg := machine.Config{MemBytes: 1 << 20, TLBSize: 8}
	src := bootGuest(cfg, guest.MemoryStride(5000)) // TLB-pressure workload
	runChunk(src, 100_000)
	if src.Halted() {
		t.Fatal("workload finished before the capture point")
	}

	dst := machine.New(cfg)
	if err := dst.RestoreState(src.CaptureState()); err != nil {
		t.Fatal(err)
	}
	compareMachines(t, "at restore", src, dst)

	for i := 0; i < 40 && !src.Halted(); i++ {
		runChunk(src, 5_000)
		runChunk(dst, 5_000)
		compareMachines(t, "lockstep", src, dst)
	}
}

// TestCaptureIsReadOnly pins that capturing does not perturb the
// source: two identical machines, one captured mid-run, must remain in
// lockstep.
func TestCaptureIsReadOnly(t *testing.T) {
	cfg := machine.Config{MemBytes: 1 << 20, TLBSize: 8}
	a := bootGuest(cfg, guest.CPUIntensive(3000))
	b := bootGuest(cfg, guest.CPUIntensive(3000))
	for i := 0; i < 30 && !a.Halted(); i++ {
		runChunk(a, 10_000)
		runChunk(b, 10_000)
		_ = a.CaptureState()
		compareMachines(t, "after capture", a, b)
	}
}

// TestRestoreInvalidatesDecodedPages pins the decoded-page-cache
// safety of restore: the target machine has EXECUTED (and therefore
// decoded) different code at the same addresses; after restore it must
// fetch the restored bytes, not dispatch stale decoded images.
func TestRestoreInvalidatesDecodedPages(t *testing.T) {
	cfg := machine.Config{MemBytes: 1 << 20}
	src := bootGuest(cfg, guest.CPUIntensive(500))
	runChunk(src, 60_000)

	// The target ran a DIFFERENT workload: same kernel addresses, but
	// its decoded pages reflect other execution paths and ABI state.
	dst := bootGuest(cfg, guest.DiskWrite(2, 512))
	runChunk(dst, 30_000)

	if err := dst.RestoreState(src.CaptureState()); err != nil {
		t.Fatal(err)
	}
	compareMachines(t, "at restore", src, dst)
	for i := 0; i < 20 && !src.Halted(); i++ {
		runChunk(src, 10_000)
		runChunk(dst, 10_000)
		compareMachines(t, "lockstep", src, dst)
	}
	if !src.Halted() || !dst.Halted() {
		t.Fatalf("workload did not finish (src=%v dst=%v)", src.Halted(), dst.Halted())
	}
}

// TestRestoreRejectsMismatch pins the compatibility checks.
func TestRestoreRejectsMismatch(t *testing.T) {
	src := machine.New(machine.Config{MemBytes: 1 << 20, TLBSize: 8})
	s := src.CaptureState()

	if err := machine.New(machine.Config{MemBytes: 2 << 20, TLBSize: 8}).RestoreState(s); err == nil {
		t.Fatal("restore accepted a RAM-size mismatch")
	}
	if err := machine.New(machine.Config{MemBytes: 1 << 20, TLBSize: 16}).RestoreState(s); err == nil {
		t.Fatal("restore accepted a TLB-geometry mismatch")
	}
	if err := machine.New(machine.Config{MemBytes: 1 << 20, TLBSize: 8, TLBPolicy: "roundrobin"}).RestoreState(s); err == nil {
		t.Fatal("restore accepted a TLB-policy mismatch")
	}

	// An LRU slot ranked past the policy clock: no machine captures that
	// (the clock is the highest rank), and the run memo finds the slots a
	// call touched by no slot standing past the clock.
	src.TLB.Insert(machine.TLBEntry{VPN: 3, PPN: 7})
	ahead := src.CaptureState()
	ahead.TLB.Slots[0].LastUse = ahead.TLB.Stamp + 1
	dst := machine.New(machine.Config{MemBytes: 1 << 20, TLBSize: 8})
	if err := dst.RestoreState(ahead); err == nil {
		t.Fatal("restore accepted an LRU stamp ahead of the clock")
	}
	if err := dst.RestoreState(src.CaptureState()); err != nil {
		t.Fatalf("restore refused a genuine capture: %v", err)
	}

	rnd := machine.New(machine.Config{MemBytes: 1 << 20, TLBSize: 8, TLBPolicy: "random"})
	if err := rnd.RestoreState(rnd.CaptureState()); err == nil {
		t.Fatal("restore accepted the chip-private random TLB policy")
	}
}

// TestCaptureRestoreRoundRobin covers the non-default deterministic
// policy's cursor state.
func TestCaptureRestoreRoundRobin(t *testing.T) {
	cfg := machine.Config{MemBytes: 1 << 20, TLBSize: 8, TLBPolicy: "roundrobin"}
	src := bootGuest(cfg, guest.MemoryStride(100))
	runChunk(src, 120_000)
	dst := machine.New(cfg)
	if err := dst.RestoreState(src.CaptureState()); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 20 && !src.Halted(); i++ {
		runChunk(src, 5_000)
		runChunk(dst, 5_000)
		compareMachines(t, "lockstep", src, dst)
	}
}
