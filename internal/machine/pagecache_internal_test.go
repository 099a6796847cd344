package machine

import (
	"testing"

	"repro/internal/isa"
)

// TestInvalidateStoreUnaligned: the physical-store path accepts
// unaligned addresses (loaders, DMA, tests), where one store spans two
// decoded slots — and possibly two pages. Both covered slots must drop.
func TestInvalidateStoreUnaligned(t *testing.T) {
	m := New(Config{})

	pg := m.execPage(0)
	pg.valid[0] = ^uint64(0)
	m.invalidateStore(2, 4) // bytes 2..5: words 0 and 1
	if pg.valid[0]&0b11 != 0 {
		t.Errorf("slots 0,1 still valid after unaligned store: %#x", pg.valid[0])
	}
	if pg.valid[0]&0b100 == 0 {
		t.Error("slot 2 was wrongly invalidated")
	}

	// Aligned word store touches exactly one slot.
	pg.valid[0] = ^uint64(0)
	m.invalidateStore(8, 4)
	if pg.valid[0]&(1<<2) != 0 {
		t.Error("slot 2 still valid after aligned store")
	}
	if pg.valid[0]&(1<<1|1<<3) != 1<<1|1<<3 {
		t.Error("neighbouring slots wrongly invalidated")
	}

	// Halfword store within one word does not touch the next slot.
	pg.valid[0] = ^uint64(0)
	m.invalidateStore(6, 2) // bytes 6..7: word 1 only
	if pg.valid[0]&(1<<1) != 0 {
		t.Error("slot 1 still valid after halfword store")
	}
	if pg.valid[0]&(1<<2) == 0 {
		t.Error("slot 2 wrongly invalidated by in-word halfword store")
	}

	// Page-crossing unaligned store invalidates the tail of one page
	// and the head of the next.
	pg.valid[15] = ^uint64(0)
	pg2 := m.execPage(0x1000)
	pg2.valid[0] = ^uint64(0)
	m.invalidateStore(0xFFE, 4) // bytes 0xFFE..0x1001
	if pg.valid[15]&(1<<63) != 0 {
		t.Error("last slot of first page still valid")
	}
	if pg2.valid[0]&1 != 0 {
		t.Error("first slot of second page still valid")
	}
}

// TestZeroImageMachine: a machine built without Config.Image is
// copy-on-write over the all-zero image — every frame is the one
// interned zeroFrame until written, LoadProgram owns exactly the pages
// the program covers, and the result is indistinguishable from a machine
// built over ProgramImage of the same program.
func TestZeroImageMachine(t *testing.T) {
	const mem = 1 << 20
	m := New(Config{MemBytes: mem})
	for i, fr := range m.frames {
		if fr != &zeroFrame.data {
			t.Fatalf("fresh imageless machine: page %d is not the shared zero frame", i)
		}
	}
	if got := m.SharedPages(); got != len(m.frames) {
		t.Fatalf("fresh imageless machine shares %d of %d pages", got, len(m.frames))
	}

	// A program straddling a page boundary: the tail of page 1, all of
	// page 2, the head of page 3.
	const origin = 2*isa.PageSize - 8
	words := make([]uint32, isa.PageSize/4+4)
	for i := range words {
		words[i] = uint32(i)*0x01010101 + 1
	}
	m.LoadProgram(origin, words, origin)
	for i := range m.frames {
		if want := i >= 1 && i <= 3; m.ownedPage(uint32(i)) != want {
			t.Errorf("after LoadProgram: page %d owned = %v, want %v", i, !want, want)
		}
	}

	over := New(Config{Image: ProgramImage(origin, words, mem)})
	over.LoadProgram(origin, words, origin)
	if over.SharedPages() != len(over.frames) {
		t.Errorf("loading a program over its own image faulted %d pages", len(over.frames)-over.SharedPages())
	}
	if m.Digest() != over.Digest() || m.DigestMemory() != over.DigestMemory() {
		t.Error("imageless machine's digests differ from a machine over the program's image")
	}
	a, b := m.CaptureState(), over.CaptureState()
	if len(a.Pages) != 3 || len(a.Pages) != len(b.Pages) {
		t.Fatalf("captures hold %d and %d pages, want 3 each", len(a.Pages), len(b.Pages))
	}
	for i := range a.Pages {
		if a.Pages[i].Index != b.Pages[i].Index || string(a.Pages[i].Data) != string(b.Pages[i].Data) {
			t.Errorf("captured page %d differs between the two backings", a.Pages[i].Index)
		}
	}

	// Writing zeros over a zero page is a COW no-op; the first differing
	// store faults exactly that page.
	m.StorePhys32(10*isa.PageSize, 0)
	if m.ownedPage(10) {
		t.Error("storing zero over the zero frame faulted the page")
	}
	m.StorePhys32(10*isa.PageSize, 7)
	if !m.ownedPage(10) || zeroFrame.data != (ramPage{}) {
		t.Error("differing store did not fault the page private (or wrote through to zeroFrame)")
	}
}
