package snapshot

// Tests for the page-granular RAM path: captures of private-RAM and
// COW machines must encode to the same canonical bytes an independent
// flat-image encoder produces, and the decoder must accept nothing but
// that canonical form.

import (
	"bytes"
	"errors"
	"testing"

	"repro/internal/isa"
	"repro/internal/machine"
)

const testMagic = "TESTMAG1"

// refPutRAM is the reference sparse encoder, written against a flat
// RAM image the way the format was first defined: count the pages
// holding a nonzero byte, then emit (index, data) for each in order.
func refPutRAM(w *Writer, mem []byte) {
	nonzero := func(p []byte) bool {
		for _, b := range p {
			if b != 0 {
				return true
			}
		}
		return false
	}
	w.U32(uint32(len(mem)))
	n := 0
	for base := 0; base < len(mem); base += isa.PageSize {
		if nonzero(mem[base:min(base+isa.PageSize, len(mem))]) {
			n++
		}
	}
	w.U32(uint32(n))
	for base := 0; base < len(mem); base += isa.PageSize {
		if page := mem[base:min(base+isa.PageSize, len(mem))]; nonzero(page) {
			w.U32(uint32(base >> isa.PageShift))
			w.Bytes(page)
		}
	}
}

func encodeRAM(s machine.State) []byte {
	w := NewWriter(testMagic)
	putRAM(w, s.MemBytes, s.Pages)
	return w.Finish()
}

func encodeMachine(s machine.State) []byte {
	w := NewWriter(testMagic)
	PutMachineState(w, s)
	return w.Finish()
}

// ramScenario drives a machine into every page state the capture
// distinguishes. RAM is 16 pages plus a 100-byte tail; pages 0-1 hold
// the program.
const ramScenarioSize = 16<<isa.PageShift + 100

func ramScenarioWords() []uint32 {
	words := make([]uint32, 2*isa.PageSize/4)
	for i := range words {
		words[i] = 0x1000_0000 + uint32(i)
	}
	return words
}

func ramScenario(shared bool) *machine.Machine {
	words := ramScenarioWords()
	cfg := machine.Config{MemBytes: ramScenarioSize, TLBSize: 8}
	if shared {
		cfg.Image = machine.ProgramImage(0, words, ramScenarioSize)
	}
	m := machine.New(cfg)
	m.LoadProgram(0, words, 0)
	m.StorePhys32(0x0010, 0xFFFF_FFFF)       // page 0: diverges from the image
	m.StorePhys32(0x1010, 0xFFFF_FFFF)       // page 1: owned, then written
	m.StorePhys32(0x1010, words[0x1010/4])   //   back to the image's bytes
	m.StorePhys32(0x5000, 0xABCD_EF01)       // page 5: owned, then written
	m.StorePhys32(0x5000, 0)                 //   back to all zero
	m.StorePhys32(0x7FFC, 0x0BAD_CAFE)       // page 7: plain dirty data
	m.StorePhys32(ramScenarioSize-4, 0x7A11) // the short tail page
	m.Regs[3], m.PC = 33, 0x40
	return m
}

func flatRAM(m *machine.Machine) []byte { return m.ReadBytes(0, int(m.MemSize())) }

// TestRAMEncodeDifferential: private and COW machines in the same
// state, captured deep and borrowed, all encode to the reference bytes
// — over an unaligned RAM size, an owned page written back to zero and
// an owned page equal to its base frame.
func TestRAMEncodeDifferential(t *testing.T) {
	priv, cow := ramScenario(false), ramScenario(true)
	if cow.SharedPages() == 0 || cow.SharedPages() == 17 {
		t.Fatalf("scenario has %d/17 shared pages; want a mix of shared and owned", cow.SharedPages())
	}
	ref := NewWriter(testMagic)
	refPutRAM(ref, flatRAM(priv))
	want := ref.Finish()
	for name, s := range map[string]machine.State{
		"private/capture": priv.CaptureState(), "private/borrow": priv.BorrowState(),
		"cow/capture": cow.CaptureState(), "cow/borrow": cow.BorrowState(),
	} {
		if got := encodeRAM(s); !bytes.Equal(got, want) {
			t.Errorf("%s: RAM encodes to %d bytes, reference %d (first difference at %d)",
				name, len(got), len(want), firstDiff(got, want))
		}
		if n := len(s.Pages); n != 4 { // pages 0, 1, 7 and the tail
			t.Errorf("%s: %d pages captured, want 4", name, n)
		}
	}
	if !bytes.Equal(encodeMachine(priv.BorrowState()), encodeMachine(cow.BorrowState())) {
		t.Error("whole-machine encodings differ between private and COW backing")
	}
}

// TestCaptureIsImmune: a deep capture is unaffected by what the machine
// does next; shared frames it references are immutable.
func TestCaptureIsImmune(t *testing.T) {
	for _, shared := range []bool{false, true} {
		m := ramScenario(shared)
		st := m.CaptureState()
		before := encodeMachine(st)
		m.StorePhys32(0x0010, 1) // an owned page the capture copied
		m.StorePhys32(0x3000, 2) // a page the capture holds by reference or omits
		m.StorePhys32(0x7FFC, 0)
		if !bytes.Equal(encodeMachine(st), before) {
			t.Errorf("shared=%v: capture changed after the machine ran on", shared)
		}
	}
}

// TestRAMRestoreReshares decodes a capture into machines that hold
// unrelated dirty state: absent pages must come back zero, pages equal
// to the base image must come back shared, and the result must
// re-encode to the same bytes.
func TestRAMRestoreReshares(t *testing.T) {
	src := ramScenario(true)
	blob := encodeMachine(src.BorrowState())
	for _, shared := range []bool{false, true} {
		dst := ramScenario(shared)
		dst.StorePhys32(0x9000, 0xD1D1) // dirty where the capture is zero
		dst.StorePhys32(0x1FF0, 0xD2D2) // dirty where the capture equals the image
		dst.StorePhys32(ramScenarioSize-8, 0xD3D3)
		r, err := NewReader(blob, testMagic)
		if err != nil {
			t.Fatal(err)
		}
		st := MachineState(r)
		if r.Err() != nil || r.Remaining() != 0 {
			t.Fatalf("decode: err %v, %d bytes left", r.Err(), r.Remaining())
		}
		if err := dst.RestoreState(st); err != nil {
			t.Fatal(err)
		}
		if dst.DigestMemory() != src.DigestMemory() {
			t.Errorf("shared=%v: restored memory differs from the source", shared)
		}
		if got := encodeMachine(dst.BorrowState()); !bytes.Equal(got, blob) {
			t.Errorf("shared=%v: restored machine re-encodes differently (first difference at %d)", shared, firstDiff(got, blob))
		}
		// Only pages 0, 7 and the tail differ from the image.
		if shared && dst.SharedPages() != 17-3 {
			t.Errorf("restored COW machine shares %d pages, want 14", dst.SharedPages())
		}
	}
}

// TestRAMDecodeRejectsNonCanonical: every deviation from the one
// canonical encoding is ErrCorrupt, and a hostile size or count is
// rejected before anything is allocated for it.
func TestRAMDecodeRejectsNonCanonical(t *testing.T) {
	const size = 4<<isa.PageShift + 100 // pages 0-3 full, page 4 is 100 bytes
	full := bytes.Repeat([]byte{7}, isa.PageSize)
	type page struct {
		idx  uint32
		data []byte
	}
	decode := func(claimSize, claimCount uint32, pages ...page) error {
		w := NewWriter(testMagic)
		w.U32(claimSize)
		w.U32(claimCount)
		for _, pg := range pages {
			w.U32(pg.idx)
			w.Bytes(pg.data)
		}
		r, err := NewReader(w.Finish(), testMagic)
		if err != nil {
			t.Fatal(err)
		}
		ramPages(r, size)
		if r.Err() == nil && r.Remaining() != 0 {
			t.Fatalf("decoder left %d bytes", r.Remaining())
		}
		return r.Err()
	}
	if err := decode(size, 3, page{0, full}, page{2, full}, page{4, full[:100]}); err != nil {
		t.Fatalf("canonical image rejected: %v", err)
	}
	if err := decode(size, 0); err != nil {
		t.Fatalf("all-zero image rejected: %v", err)
	}
	for name, err := range map[string]error{
		"2 GiB size claim":      decode(1<<31, 0),
		"size mismatch":         decode(size+1, 0),
		"count beyond the blob": decode(size, 1<<30),
		"count beyond the RAM":  decode(size, 6, page{0, full}, page{1, full}, page{2, full}, page{3, full}, page{4, full[:100]}, page{5, full}),
		"truncated page list":   decode(size, 2, page{0, full}),
		"descending":            decode(size, 2, page{2, full}, page{1, full}),
		"duplicate":             decode(size, 2, page{1, full}, page{1, full}),
		"out of range":          decode(size, 1, page{5, full[:100]}),
		"short page":            decode(size, 1, page{1, full[:100]}),
		"long page":             decode(size, 1, page{1, append(full[:isa.PageSize:isa.PageSize], 7)}),
		"long tail page":        decode(size, 1, page{4, full}),
		"short tail page":       decode(size, 1, page{4, full[:99]}),
		"explicit zero page":    decode(size, 1, page{1, make([]byte, isa.PageSize)}),
		"explicit zero tail":    decode(size, 1, page{4, make([]byte, 100)}),
	} {
		if !errors.Is(err, ErrCorrupt) {
			t.Errorf("%s: decoded with %v, want ErrCorrupt", name, err)
		}
	}
}

// TestReaderStrictness pins the two codec gates the canonical-form
// property rests on.
func TestReaderStrictness(t *testing.T) {
	w := NewWriter(testMagic)
	w.U8(2)        // not a boolean
	w.U32(1 << 20) // a count nothing backs
	blob := w.Finish()
	r, _ := NewReader(blob, testMagic)
	if r.Bool(); !errors.Is(r.Err(), ErrCorrupt) {
		t.Errorf("Bool accepted byte 2: %v", r.Err())
	}
	r, _ = NewReader(blob, testMagic)
	r.U8()
	if n := r.Count(8); n != 0 || !errors.Is(r.Err(), ErrCorrupt) {
		t.Errorf("Count accepted %d elements with %d bytes left: %v", n, r.Remaining(), r.Err())
	}
}

// TestSectionInPlace: a section encoded in place is byte-for-byte the
// blob-in-a-blob it replaces, and pooled writers start clean.
func TestSectionInPlace(t *testing.T) {
	inner := NewWriter("INNERMAG")
	inner.String("payload")
	inner.U64(42)
	old := NewWriter(testMagic)
	old.String("name")
	old.Bytes(inner.Finish())
	want := old.Finish()

	for round := 0; round < 2; round++ { // second round reuses the buffer
		w := GrabWriter(testMagic)
		w.String("name")
		mark := w.BeginSection("INNERMAG")
		w.String("payload")
		w.U64(42)
		sect := w.EndSection(mark)
		if _, err := NewReader(sect, "INNERMAG"); err != nil {
			t.Fatalf("section blob does not stand alone: %v", err)
		}
		if got := w.Finish(); !bytes.Equal(got, want) {
			t.Fatalf("round %d: in-place section encodes differently", round)
		}
		w.Release()
	}
}

func firstDiff(a, b []byte) int {
	n := min(len(a), len(b))
	for i := 0; i < n; i++ {
		if a[i] != b[i] {
			return i
		}
	}
	return n
}
