package machine

// Tests for the machine's byte format (snapshot.go): captures of
// private-RAM and COW machines must encode to the same canonical bytes
// an independent flat-image encoder produces, the decoder must accept
// nothing but that canonical form, and — FuzzMachineState — whatever
// decodes re-encodes to exactly the input.

import (
	"bytes"
	"errors"
	"testing"

	"repro/internal/isa"
	"repro/internal/snapshot"
)

const testMagic = "TESTMAG1"

// refPutRAM is the reference sparse encoder, written against a flat
// RAM image the way the format was first defined: count the pages
// holding a nonzero byte, then emit (index, data) for each in order.
func refPutRAM(w *snapshot.Writer, mem []byte) {
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

func encodeRAM(s State) []byte {
	w := snapshot.NewWriter(testMagic)
	s.codeRAM(w.Codec())
	return w.Finish()
}

func encodeMachine(s State) []byte {
	w := snapshot.NewWriter(testMagic)
	s.Code(w.Codec())
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

func ramScenario(shared bool) *Machine {
	words := ramScenarioWords()
	cfg := Config{MemBytes: ramScenarioSize, TLBSize: 8}
	if shared {
		cfg.Image = ProgramImage(0, words, ramScenarioSize)
	}
	m := New(cfg)
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

func flatRAM(m *Machine) []byte { return m.ReadBytes(0, int(m.MemSize())) }

// TestRAMEncodeDifferential: private and COW machines in the same
// state, captured deep and borrowed, all encode to the reference bytes
// — over an unaligned RAM size, an owned page written back to zero and
// an owned page equal to its base frame.
func TestRAMEncodeDifferential(t *testing.T) {
	priv, cow := ramScenario(false), ramScenario(true)
	if cow.SharedPages() == 0 || cow.SharedPages() == 17 {
		t.Fatalf("scenario has %d/17 shared pages; want a mix of shared and owned", cow.SharedPages())
	}
	ref := snapshot.NewWriter(testMagic)
	refPutRAM(ref, flatRAM(priv))
	want := ref.Finish()
	for name, s := range map[string]State{
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
		r, err := snapshot.NewReader(blob, testMagic)
		if err != nil {
			t.Fatal(err)
		}
		var st State
		st.Code(r.Codec())
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
// canonical encoding is snapshot.ErrCorrupt, and a hostile size or count is
// rejected before anything is allocated for it.
func TestRAMDecodeRejectsNonCanonical(t *testing.T) {
	const size = 4<<isa.PageShift + 100 // pages 0-3 full, page 4 is 100 bytes
	full := bytes.Repeat([]byte{7}, isa.PageSize)
	type page struct {
		idx  uint32
		data []byte
	}
	decode := func(claimSize, claimCount uint32, pages ...page) error {
		w := snapshot.NewWriter(testMagic)
		w.U32(claimSize)
		w.U32(claimCount)
		for _, pg := range pages {
			w.U32(pg.idx)
			w.Bytes(pg.data)
		}
		r, err := snapshot.NewReader(w.Finish(), testMagic)
		if err != nil {
			t.Fatal(err)
		}
		st := State{MemBytes: size}
		st.codeRAM(r.Codec())
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
		if !errors.Is(err, snapshot.ErrCorrupt) {
			t.Errorf("%s: decoded with %v, want snapshot.ErrCorrupt", name, err)
		}
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

// body strips a blob's header and checksum trailer; seal restores them.
func body(blob []byte) []byte { return blob[8+4 : len(blob)-8] }

func seal(body []byte) []byte {
	w := snapshot.NewWriter(testMagic)
	for _, b := range body {
		w.U8(b)
	}
	return w.Finish()
}

// sampleState captures a machine with every optional structure
// populated: sparse RAM with a short tail page, a TLB entry.
func sampleState(memBytes uint32) State {
	m := New(Config{MemBytes: memBytes, TLBSize: 8})
	m.StorePhys32(0x1000, 0x12345678)
	m.StorePhys32(memBytes-4, 0xCAFEBABE)
	m.Regs[5] = 99
	m.PC = 0x1000
	m.TLB.Insert(TLBEntry{VPN: 3, PPN: 7, Flags: 0xF})
	return m.CaptureState()
}

// FuzzMachineState: one property covers both robustness and canonical
// form — a body that decodes at all re-encodes to exactly the input, so
// a decoder that over-allocates, panics or accepts a second spelling of
// some state fails the target. The fuzzed input is the blob's BODY: the
// target adds the header and a valid checksum itself, so mutations
// reach the decoder instead of dying at the checksum gate.
func FuzzMachineState(f *testing.F) {
	f.Add(body(encodeMachine(sampleState(3 << 12))))
	f.Add(body(encodeMachine(sampleState(2<<12 + 100))))
	f.Add(body(encodeMachine(State{})))
	f.Fuzz(func(t *testing.T, in []byte) {
		blob := seal(in)
		r, err := snapshot.NewReader(blob, testMagic)
		if err != nil {
			t.Fatal(err)
		}
		var s State
		s.Code(r.Codec())
		if r.Err() != nil || r.Remaining() != 0 {
			return
		}
		if again := encodeMachine(s); !bytes.Equal(again, blob) {
			t.Fatalf("decoded machine state re-encodes to %d bytes, input was %d (first difference at %d)",
				len(again), len(blob), firstDiff(again, blob))
		}
		// Whatever decodes must also be safe to hand to a machine of the
		// size it claims: restore accepts or refuses, never panics.
		if s.MemBytes == 0 || s.MemBytes > 1<<20 || len(s.TLB.Slots) == 0 || len(s.TLB.Slots) > 64 {
			return
		}
		m := New(Config{MemBytes: s.MemBytes, TLBSize: len(s.TLB.Slots)})
		if err := m.RestoreState(s); err == nil {
			if !bytes.Equal(encodeRAM(m.BorrowState()), encodeRAM(s)) {
				t.Fatal("restored machine's RAM encodes differently from the state it restored")
			}
			if !bytes.Equal(encodeTLB(m.BorrowState().TLB), encodeTLB(s.TLB)) {
				t.Fatal("restored machine's TLB encodes differently from the state it restored")
			}
		}
		m.Release()
	})
}

func encodeTLB(s TLBState) []byte {
	w := snapshot.NewWriter(testMagic)
	s.code(w.Codec())
	return w.Finish()
}

// TestDecodeRecencyCanonical: the decoder accepts TLB recency only as a
// capture writes it — under LRU the ranks 1..k, each once, and the clock
// k; under the other policies no stamp and no clock, and a cursor only
// under round-robin — and refuses anything else as corrupt, as restore
// does, so that every state accepted restores to a TLB that captures as
// that state again.
func TestDecodeRecencyCanonical(t *testing.T) {
	const slots = 8
	for _, c := range []struct {
		name   string
		policy string
		last   []uint64 // the first slots' stamps; the rest are zero
		clock  uint64
		next   int
		ok     bool
	}{
		{"lru/untouched", "lru", nil, 0, 0, true},
		{"lru/ranks", "lru", []uint64{2, 0, 1, 3}, 3, 0, true},
		{"lru/all", "lru", []uint64{4, 2, 8, 1, 3, 7, 6, 5}, 8, 0, true},
		{"lru/repeated", "lru", []uint64{1, 1, 2}, 2, 0, false},
		{"lru/repeated-top", "lru", []uint64{2, 1, 2}, 2, 0, false},
		{"lru/gap", "lru", []uint64{1, 3}, 3, 0, false},
		{"lru/no-one", "lru", []uint64{2, 3}, 3, 0, false},
		{"lru/beyond-the-slots", "lru", []uint64{9}, 9, 0, false},
		{"lru/raw-clock", "lru", []uint64{17, 5, 0, 9}, 17, 0, false},
		{"lru/huge", "lru", []uint64{1 << 63}, 1 << 63, 0, false},
		{"lru/clock-high", "lru", []uint64{1, 2}, 3, 0, false},
		{"lru/clock-low", "lru", []uint64{1, 2}, 1, 0, false},
		{"lru/clock-alone", "lru", nil, 1, 0, false},
		{"lru/cursor", "lru", []uint64{1}, 1, 2, false},
		{"roundrobin/cursor", "roundrobin", nil, 0, 13, true},
		{"roundrobin/stamp", "roundrobin", []uint64{0, 1}, 0, 0, false},
		{"roundrobin/clock", "roundrobin", nil, 1, 0, false},
		{"random/cursor", "random", nil, 0, 1, false},
	} {
		t.Run(c.name, func(t *testing.T) {
			s := New(Config{MemBytes: 3 << 12, TLBSize: slots, TLBPolicy: c.policy}).CaptureState()
			for i, at := range c.last {
				s.TLB.Slots[i].LastUse = at
			}
			s.TLB.Stamp, s.TLB.Next = c.clock, c.next
			blob := encodeMachine(s)
			r, err := snapshot.NewReader(blob, testMagic)
			if err != nil {
				t.Fatal(err)
			}
			var d State
			d.Code(r.Codec())
			if !c.ok {
				if !errors.Is(r.Err(), snapshot.ErrCorrupt) {
					t.Errorf("decoded with %v, want snapshot.ErrCorrupt", r.Err())
				}
				target := New(Config{MemBytes: 3 << 12, TLBSize: slots, TLBPolicy: c.policy})
				if err := target.RestoreState(s); c.policy != "random" && !errors.Is(err, snapshot.ErrCorrupt) {
					t.Errorf("restored with %v, want snapshot.ErrCorrupt", err)
				}
				return
			}
			if r.Err() != nil {
				t.Fatalf("canonical recency refused: %v", r.Err())
			}
			target := New(Config{MemBytes: 3 << 12, TLBSize: slots, TLBPolicy: c.policy})
			if err := target.RestoreState(s); err != nil {
				t.Fatal(err)
			}
			if again := encodeMachine(target.CaptureState()); !bytes.Equal(again, blob) {
				t.Fatalf("restore + capture is not a fixed point:\n%+v\n%+v", target.CaptureState().TLB, s.TLB)
			}
		})
	}
}

// TestBorrowStateAllocs: a warm borrow allocates nothing — its page list
// and TLB slots are storage the machine keeps.
func TestBorrowStateAllocs(t *testing.T) {
	m := ramScenario(true)
	for vpn := range uint32(5) {
		m.TLB.Insert(TLBEntry{VPN: vpn, PPN: vpn, Valid: true})
	}
	m.BorrowState()
	var pages int
	if n := testing.AllocsPerRun(100, func() { pages = len(m.BorrowState().Pages) }); n != 0 {
		t.Fatalf("a warm BorrowState allocates %v objects, want none", n)
	}
	if pages != 4 {
		t.Fatalf("%d pages borrowed, want 4", pages)
	}
}

// TestBorrowRecycledMachine: a machine recycled from one that dirtied
// more pages and stamped more TLB slots, then driven into ramScenario's
// state, encodes byte for byte as a new machine in that state — no page
// or slot recency of the last borrow survives in the reused storage.
func TestBorrowRecycledMachine(t *testing.T) {
	cfg := Config{MemBytes: ramScenarioSize, TLBSize: 8}
	drive := func(m *Machine) {
		m.LoadProgram(0, ramScenarioWords(), 0)
		m.StorePhys32(0x7FFC, 0x0BAD_CAFE)
		m.StorePhys32(ramScenarioSize-4, 0x7A11)
		for vpn := range uint32(2) {
			m.TLB.Insert(TLBEntry{VPN: vpn, PPN: vpn + 1, Valid: true})
		}
	}
	a := new(Arena)
	old := NewIn(a, cfg)
	for pa := uint32(0); pa < ramScenarioSize-4; pa += isa.PageSize {
		old.StorePhys32(pa, pa|1)
	}
	for vpn := range uint32(8) {
		old.TLB.Insert(TLBEntry{VPN: 100 + vpn, PPN: vpn, Flags: 3, Valid: true})
	}
	if n := len(old.BorrowState().Pages); n != 17 {
		t.Fatalf("the first machine borrows %d pages, want 17", n)
	}
	old.Release()

	reused := NewIn(a, cfg)
	if reused != old || cap(reused.borrowed.pages) < 17 {
		t.Fatal("the arena did not hand back the released machine with its borrow storage")
	}
	fresh := New(cfg)
	drive(reused)
	drive(fresh)
	want := encodeMachine(fresh.CaptureState())
	if got := encodeMachine(reused.BorrowState()); !bytes.Equal(got, want) {
		t.Fatalf("the recycled machine encodes to %d bytes, a new one to %d (first difference at %d)",
			len(got), len(want), firstDiff(got, want))
	}
	if got := encodeMachine(fresh.BorrowState()); !bytes.Equal(got, want) {
		t.Fatal("a new machine's borrow encodes differently from its capture")
	}
}
