// Package machine implements the PA-lite processor: a deterministic
// interpreter for the instruction set defined in internal/isa, with four
// privilege levels, a software-managed TLB, a recovery counter, an
// interval timer, a time-of-day clock, and a memory-mapped I/O window.
//
// The machine is a passive state object: Step executes one instruction
// and reports what happened (normal retirement, a trap, HALT, WFI). The
// caller — the bare-metal platform driver or the hypervisor — decides how
// traps are dispatched. DeliverTrap implements the hardware interruption
// sequence (save PSW/PC, demote to PL 0, jump to the vector); a
// hypervisor instead intercepts traps and emulates or reflects them.
package machine

import (
	"bytes"
	"encoding/binary"
	"fmt"

	"repro/internal/isa"
	"repro/internal/snapshot"
)

// accessKind distinguishes memory access types for permission checks.
type accessKind uint8

const (
	accessRead accessKind = iota
	accessWrite
	accessExec
)

// MMIOHandler is implemented by the platform's device bus: loads and
// stores that hit the MMIO window (at privilege level 0) are routed here.
// Addresses are physical and offsets within the window. Size is 1, 2 or 4
// bytes. Errors become machine checks.
//
// MMIOPure reports whether a load at addr leaves the device as it found
// it — a status latch, not a read-to-pop FIFO — so that, with nothing
// else moving, the same load returns the same value again. The trace
// executor relies on it to retire a guest's status poll in closed form
// (trace_exec.go, Spins); answering false is always safe.
type MMIOHandler interface {
	MMIOLoad(addr uint32, size int) (uint32, error)
	MMIOStore(addr uint32, size int, v uint32) error
	MMIOPure(addr uint32) bool
}

// MMIOBase and MMIOSize delimit the memory-mapped I/O window in
// physical address space (fixed ABI with the guest kernel).
const (
	MMIOBase uint32 = 0xF0000000
	MMIOSize uint32 = 1 << 20
)

// Config describes a machine instance.
type Config struct {
	// MemBytes is the physical RAM size (default 8 MiB).
	MemBytes uint32
	// TLBSize is the number of TLB slots (default 16).
	TLBSize int
	// TLBPolicy is "lru", "roundrobin" or "random" (default "lru").
	TLBPolicy string
	// TLBSeed seeds the "random" policy; it models chip-internal
	// nondeterminism so SHOULD differ between physical processors.
	TLBSeed int64
	// CPUID is the value of the CPUID control register.
	CPUID uint32
	// TODSource supplies the time-of-day clock value (environment state,
	// typically derived from the simulation clock). If nil, TOD reads
	// return the retired-instruction count.
	TODSource func() uint32
	// NoTraces disables superblock trace dispatch for this machine: Run
	// falls back to the per-instruction fast loop. Architected state,
	// statistics and TLB behaviour are identical either way (traces are
	// a pure execution-speed layer); the switch exists so the trace
	// differential suite can drive the fallback loop as a reference arm.
	NoTraces bool
	// Image is the shared immutable base image RAM is copy-on-write over:
	// pages are faulted private on the first differing store (see
	// cow.go). Nil means the all-zero image of MemBytes. MemBytes must be
	// zero or equal to Image.Size().
	Image *BaseImage
}

// withDefaults fills zero fields.
func (c Config) withDefaults() Config {
	if c.MemBytes == 0 {
		if c.Image != nil {
			c.MemBytes = c.Image.Size()
		} else {
			c.MemBytes = 8 << 20
		}
	}
	if c.TLBSize == 0 {
		c.TLBSize = 16
	}
	if c.TLBPolicy == "" {
		c.TLBPolicy = "lru"
	}
	return c
}

// debugNoTraces, when set (spec.go), is Config.NoTraces for every machine
// New builds: the reference arm of the trace differentials, machine-wide.
var debugNoTraces bool

// Stats counts retired instructions by class for the performance study.
type Stats struct {
	Instructions uint64 // total retired
	Privileged   uint64 // privileged-class instructions executed at PL 0
	Environment  uint64 // environment-class instructions executed
	Loads        uint64
	Stores       uint64
	Branches     uint64
	Traps        uint64 // synchronous traps raised
}

// StepResult reports the outcome of executing (or attempting) one
// instruction.
type StepResult struct {
	// Trap is isa.TrapNone for normal retirement.
	Trap isa.Trap
	// ISR/IOR are trap detail values (trap-specific).
	ISR uint32
	IOR uint32
	// Halted is set once HALT retires; further Steps are no-ops.
	Halted bool
	// Idle is set when WFI retires with no pending interrupt; the caller
	// should advance time until an interrupt arrives.
	Idle bool
	// Diag carries the immediate of a retired DIAG instruction, plus one
	// (so zero means "no diag").
	Diag uint32
	// Inst/Raw are the decoded and raw forms of the instruction that
	// caused a synchronous trap (valid when Trap is synchronous and
	// decoding succeeded). Hypervisors use them to emulate the trapped
	// instruction without refetching.
	Inst isa.Inst
	Raw  uint32
}

// Machine is one PA-lite processor with its RAM.
type Machine struct {
	cfg Config

	// Architected state.
	Regs [isa.NumRegs]uint32
	PC   uint32
	PSW  uint32
	CRs  [isa.NumCRs]uint32

	// frames maps each physical page number to its backing frame. Frames
	// start out pointing at the shared immutable base image (img) and are
	// copied private on the first differing store (copy-on-write, see
	// cow.go).
	frames []*ramPage
	// owned marks, one bit per page, frames private to this machine and
	// therefore writable in place.
	owned []uint64
	// img is the shared base image.
	img *BaseImage
	// arena owns the machine and its bulk buffers (see pool.go).
	arena *Arena
	// memSize is the physical RAM size in bytes.
	memSize uint32

	// TLB is the translation buffer (software managed).
	TLB *TLB

	// Bus receives MMIO accesses; nil means no devices (MMIO access
	// machine-checks).
	Bus MMIOHandler
	// mux is the machine's own multiplexer (BusMux), recycled with it.
	mux BusMux

	// Stats accumulates instruction counts.
	Stats Stats

	halted bool
	cycles uint64 // retired instruction count
	// tres stages the StepResult of an execute call that did not retire
	// plainly (trap, HALT, WFI, DIAG), so the common path moves no
	// result struct at all.
	tres StepResult

	// decodeCache memoizes Decode by word value (decoding is a pure
	// function of the instruction word, so self-modifying code remains
	// correct). Direct-mapped; collisions just re-decode. Step's path
	// and cold page fills only — the batched Run path over a shared
	// image seeds its translation cache from the shared decode and never
	// touches it — so it is taken on first use: the arena's, which every
	// machine over it shares (see Arena.decodeCache).
	decodeCache *[decodeCacheSize]decodeEntry

	// pages is the translation cache: lazily decoded images of physical
	// pages, indexed by physical page number (see pagecache.go). Entries
	// are invalidated by stores into the page.
	pages []*decodedPage

	// traceOn enables superblock trace dispatch in Run (see trace.go):
	// !Config.NoTraces and !debugNoTraces.
	traceOn bool

	// memo is the run memo (see memo.go) and runGen the generation of what
	// a remembered call depends on besides the state it compares: it
	// advances whenever RAM is written by anyone but a guest store
	// (StorePhys32, WriteBytes, RestoreState) and whenever a trace entry is
	// marked or built, which is what picks Run's path through the code.
	memo   runMemo
	runGen uint64

	// borrowed is BorrowState's storage: the page list and TLB slots of
	// the last borrowed State, reused by the next borrow and kept across
	// recycling like frames and pages.
	borrowed borrowed
}

// borrowed is the storage a borrowed State's lists alias.
type borrowed struct {
	pages []Page
	slots []TLBSlotState
}

const (
	decodeCacheBits = 12
	decodeCacheSize = 1 << decodeCacheBits
)

type decodeEntry struct {
	word  uint32
	inst  isa.Inst
	valid bool
}

// decodeIndex maps an instruction word to its decode-cache slot. The
// opcode occupies the TOP six bits of the word, so a plain low-bit index
// would key on immediate bits shared by many distinct instructions and
// thrash; a multiplicative (Fibonacci) hash mixes all bits into the slot.
func decodeIndex(w uint32) uint32 {
	return (w * 0x9E3779B1) >> (32 - decodeCacheBits)
}

// decode returns the decoded form of w, via the memo cache.
func (m *Machine) decode(w uint32) (isa.Inst, bool) {
	if m.decodeCache == nil {
		m.decodeCache = m.arena.decodeCache()
	}
	e := &m.decodeCache[decodeIndex(w)]
	if e.valid && e.word == w {
		return e.inst, true
	}
	in, err := isa.Decode(w)
	if err != nil {
		return isa.Inst{}, false
	}
	*e = decodeEntry{word: w, inst: in, valid: true}
	return in, true
}

// New creates a machine per cfg, with all state zero and PC = 0, over a
// private arena: its bulk buffers are allocated plainly.
func New(cfg Config) *Machine { return NewIn(new(Arena), cfg) }

// NewIn is New over an arena: the machine is one a released to the
// arena, rebuilt in place with its buffers, when the arena has one, and
// goes back to it at Release.
func NewIn(a *Arena, cfg Config) *Machine {
	cfg = cfg.withDefaults()
	m, ok := a.machines.Get()
	if !ok {
		m = &Machine{TLB: new(TLB)}
	}
	var pol ReplacePolicy
	switch cfg.TLBPolicy {
	case "lru":
		p := m.TLB.lru // a recycled TLB keeps its LRU policy
		if p == nil {
			p = new(LRUPolicy)
		}
		*p = LRUPolicy{last: zeroed(p.last, cfg.TLBSize)}
		pol = p
	case "roundrobin":
		pol = NewRoundRobinPolicy()
	case "random":
		pol = NewRandomPolicy(cfg.TLBSeed)
	default:
		panic(fmt.Sprintf("machine: unknown TLB policy %q", cfg.TLBPolicy))
	}
	npages := int((cfg.MemBytes + isa.PageSize - 1) >> isa.PageShift)
	*m = Machine{
		cfg:      cfg,
		TLB:      m.TLB.reset(zeroed(m.TLB.slots, cfg.TLBSize), pol),
		mux:      BusMux{ranges: m.mux.ranges[:0]},
		frames:   zeroed(m.frames, npages),
		owned:    zeroed(m.owned, (npages+63)/64),
		pages:    zeroed(m.pages, npages),
		memSize:  cfg.MemBytes,
		traceOn:  !cfg.NoTraces && !debugNoTraces,
		img:      cfg.Image,
		arena:    a,
		borrowed: m.borrowed,
	}
	if m.img == nil {
		m.img = ProgramImage(0, nil, cfg.MemBytes)
	} else if m.img.Size() != cfg.MemBytes {
		panic(fmt.Sprintf("machine: base image is %d bytes, config wants %d", m.img.Size(), cfg.MemBytes))
	}
	// All frames shared, no ownership bits set.
	for i := range m.frames {
		m.frames[i] = &m.img.frames[i].data
	}
	m.CRs[isa.CRCPUID] = cfg.CPUID
	return m
}

// BusMux returns the machine's own MMIO multiplexer, empty after NewIn:
// map the devices on it and set Bus to it. It is recycled with the
// machine.
func (m *Machine) BusMux() *BusMux { return &m.mux }

// MemSize returns the physical RAM size in bytes.
func (m *Machine) MemSize() uint32 { return m.memSize }

// Config returns the machine's configuration (defaults applied).
func (m *Machine) Config() Config { return m.cfg }

// Cycles returns the number of retired instructions.
func (m *Machine) Cycles() uint64 { return m.cycles }

// Halted reports whether HALT has retired.
func (m *Machine) Halted() bool { return m.halted }

// PL returns the current privilege level (0..3).
func (m *Machine) PL() uint32 { return m.PSW & isa.PSWPLMask }

// SetPL sets the privilege level bits of the PSW.
func (m *Machine) SetPL(pl uint32) {
	m.PSW = (m.PSW &^ isa.PSWPLMask) | (pl & isa.PSWPLMask)
}

// InMMIO reports whether a physical address falls in the MMIO window.
func (m *Machine) InMMIO(pa uint32) bool {
	return pa-MMIOBase < MMIOSize
}

// RaiseIRQ asserts external interrupt line n (0..31): sets the EIRR bit.
// Devices (via the platform) call this; the bit stays set until system
// software clears it by writing EIRR (write-1-to-clear).
func (m *Machine) RaiseIRQ(line uint) {
	m.CRs[isa.CREIRR] |= 1 << (line & 31)
}

// IRQPending reports whether any unmasked external interrupt is pending.
func (m *Machine) IRQPending() bool {
	return m.CRs[isa.CREIRR]&m.CRs[isa.CREIEM] != 0
}

// IRQRaised reports whether any interrupt line is asserted regardless of
// masking (used by WFI wake-up logic).
func (m *Machine) IRQRaised() bool { return m.CRs[isa.CREIRR] != 0 }

// ReadCR reads a control register, applying special semantics.
func (m *Machine) ReadCR(cr isa.CR) uint32 {
	switch cr {
	case isa.CRTOD:
		return m.TOD()
	default:
		return m.CRs[cr]
	}
}

// WriteCR writes a control register, applying special semantics:
// EIRR is write-1-to-clear; TOD and CPUID are read-only (writes ignored).
func (m *Machine) WriteCR(cr isa.CR, v uint32) {
	switch cr {
	case isa.CREIRR:
		m.CRs[cr] &^= v
	case isa.CRTOD, isa.CRCPUID:
		// read-only
	default:
		m.CRs[cr] = v
	}
}

// TOD returns the time-of-day clock value.
func (m *Machine) TOD() uint32 {
	if m.cfg.TODSource != nil {
		return m.cfg.TODSource()
	}
	return uint32(m.cycles)
}

// DeliverTrap performs the hardware interruption sequence: saves PSW and
// PC into IPSW/IIA, stores detail into ISR/IOR, switches to privilege
// level 0 with interrupts, translation and the recovery counter disabled,
// and jumps to the trap's vector. The bare-metal platform calls this for
// every trap; a hypervisor calls it only when reflecting a virtual trap
// into the guest (after adjusting the guest's virtual CRs).
func (m *Machine) DeliverTrap(t isa.Trap, isr, ior uint32) {
	m.CRs[isa.CRIPSW] = m.PSW
	m.CRs[isa.CRIIA] = m.PC
	m.CRs[isa.CRISR] = isr
	m.CRs[isa.CRIOR] = ior
	m.PSW &^= isa.PSWPLMask | isa.PSWI | isa.PSWV | isa.PSWR
	m.PC = m.CRs[isa.CRIVA] + uint32(t)*isa.VectorStride
}

// translate maps a virtual address to physical, checking permissions.
// With PSW.V clear, addresses are physical (PA-lite permits real-mode
// access at any PL; MMIO still requires PL 0 — enforced by the caller).
func (m *Machine) translate(va uint32, kind accessKind) (uint32, isa.Trap) {
	if m.PSW&isa.PSWV == 0 {
		return va, isa.TrapNone
	}
	vpn := va >> isa.PageShift
	e, ok := m.TLB.Lookup(vpn)
	if !ok {
		if kind == accessExec {
			return 0, isa.TrapITLBMiss
		}
		return 0, isa.TrapDTLBMiss
	}
	if !permitted(e, kind, m.PL()) {
		return 0, isa.TrapAccess
	}
	return e.PPN<<isa.PageShift | va&isa.PageMask, isa.TrapNone
}

// loadPhys reads size bytes little-endian from physical memory or MMIO.
func (m *Machine) loadPhys(pa uint32, size int) (uint32, isa.Trap) {
	if m.InMMIO(pa) {
		if m.PL() != 0 {
			return 0, isa.TrapAccess
		}
		if m.Bus == nil {
			return 0, isa.TrapMachine
		}
		v, err := m.Bus.MMIOLoad(pa-MMIOBase, size)
		if err != nil {
			return 0, isa.TrapMachine
		}
		return v, isa.TrapNone
	}
	if pa+uint32(size) > m.memSize || pa+uint32(size) < pa {
		return 0, isa.TrapMachine
	}
	fr := m.frames[pa>>isa.PageShift]
	off := pa & isa.PageMask
	if off+uint32(size) <= isa.PageSize {
		switch size {
		case 4:
			return binary.LittleEndian.Uint32(fr[off:]), isa.TrapNone
		case 2:
			return uint32(binary.LittleEndian.Uint16(fr[off:])), isa.TrapNone
		default:
			return uint32(fr[off]), isa.TrapNone
		}
	}
	// The access crosses a page boundary (unaligned physical access from
	// a loader or test path; guest accesses are alignment-checked first):
	// assemble byte-wise across frames.
	var v uint32
	for i := 0; i < size; i++ {
		a := pa + uint32(i)
		v |= uint32(m.frames[a>>isa.PageShift][a&isa.PageMask]) << (8 * i)
	}
	return v, isa.TrapNone
}

// storePhys writes size bytes little-endian to physical memory or MMIO.
func (m *Machine) storePhys(pa uint32, size int, v uint32) isa.Trap {
	if m.InMMIO(pa) {
		if m.PL() != 0 {
			return isa.TrapAccess
		}
		if m.Bus == nil {
			return isa.TrapMachine
		}
		if err := m.Bus.MMIOStore(pa-MMIOBase, size, v); err != nil {
			return isa.TrapMachine
		}
		return isa.TrapNone
	}
	if pa+uint32(size) > m.memSize || pa+uint32(size) < pa {
		return isa.TrapMachine
	}
	idx := pa >> isa.PageShift
	off := pa & isa.PageMask
	if off+uint32(size) <= isa.PageSize {
		fr := m.frames[idx]
		if !m.ownedPage(idx) {
			// COW: a store that rewrites the bytes already present leaves
			// page contents — the only machine state RAM-derived caches
			// and digests depend on — unchanged, so it is a no-op and the
			// page stays shared. This is what lets a loader replay the
			// base image over shared frames without faulting anything.
			if equalInFrame(fr, off, size, v) {
				return isa.TrapNone
			}
			fr = m.faultPage(idx)
		}
		m.invalidateStore(pa, size)
		switch size {
		case 4:
			binary.LittleEndian.PutUint32(fr[off:], v)
		case 2:
			binary.LittleEndian.PutUint16(fr[off:], uint16(v))
		default:
			fr[off] = byte(v)
		}
		return isa.TrapNone
	}
	// The store crosses a page boundary (unaligned physical store from a
	// loader or test path).
	if !m.ownedPage(idx) || !m.ownedPage(idx+1) {
		same := true
		for i := 0; i < size; i++ {
			a := pa + uint32(i)
			if m.frames[a>>isa.PageShift][a&isa.PageMask] != byte(v>>(8*i)) {
				same = false
				break
			}
		}
		if same {
			return isa.TrapNone
		}
		m.faultPage(idx)
		m.faultPage(idx + 1)
	}
	m.invalidateStore(pa, size)
	for i := 0; i < size; i++ {
		a := pa + uint32(i)
		m.frames[a>>isa.PageShift][a&isa.PageMask] = byte(v >> (8 * i))
	}
	return isa.TrapNone
}

// equalInFrame reports whether a little-endian store of v (size bytes)
// at frame offset off would leave the frame unchanged.
func equalInFrame(fr *ramPage, off uint32, size int, v uint32) bool {
	switch size {
	case 4:
		return binary.LittleEndian.Uint32(fr[off:]) == v
	case 2:
		return binary.LittleEndian.Uint16(fr[off:]) == uint16(v)
	default:
		return fr[off] == byte(v)
	}
}

// LoadPhys32 reads a word from physical RAM (no MMIO), for loaders, DMA
// and tests. Panics on out-of-range addresses.
func (m *Machine) LoadPhys32(pa uint32) uint32 {
	v, tr := m.loadPhys(pa, 4)
	if tr != isa.TrapNone {
		panic(fmt.Sprintf("machine: LoadPhys32(%#x): %v", pa, tr))
	}
	return v
}

// StorePhys32 writes a word to physical RAM, for loaders, DMA and tests.
func (m *Machine) StorePhys32(pa uint32, v uint32) {
	m.runGen++
	if tr := m.storePhys(pa, 4, v); tr != isa.TrapNone {
		panic(fmt.Sprintf("machine: StorePhys32(%#x): %v", pa, tr))
	}
}

// ReadBytes copies n bytes of physical RAM starting at pa (for DMA) into
// a new slice. Panics on out-of-range addresses.
func (m *Machine) ReadBytes(pa uint32, n int) []byte {
	out := make([]byte, n)
	m.ReadInto(pa, out)
	return out
}

// ReadInto copies len(dst) bytes of physical RAM starting at pa into dst
// (DMA into a buffer the device owns). Panics on out-of-range addresses.
func (m *Machine) ReadInto(pa uint32, dst []byte) {
	if int64(pa)+int64(len(dst)) > int64(m.memSize) {
		panic(fmt.Sprintf("machine: ReadInto(%#x, %d): out of range", pa, len(dst)))
	}
	for len(dst) > 0 {
		c := copy(dst, m.frames[pa>>isa.PageShift][pa&isa.PageMask:])
		dst = dst[c:]
		pa += uint32(c)
	}
}

// WriteBytes copies data into physical RAM at pa (for DMA and loading),
// page-wise. Shared pages whose covered bytes already equal the data
// stay shared and untouched, and are otherwise COW-faulted first; the
// page's decoded image is invalidated whole before the copy.
func (m *Machine) WriteBytes(pa uint32, data []byte) {
	if int64(pa)+int64(len(data)) > int64(m.memSize) {
		panic(fmt.Sprintf("machine: WriteBytes(%#x, %d): out of range", pa, len(data)))
	}
	m.runGen++
	for len(data) > 0 {
		idx := pa >> isa.PageShift
		off := pa & isa.PageMask
		c := int(isa.PageSize - off)
		if c > len(data) {
			c = len(data)
		}
		fr := m.frames[idx]
		if !m.ownedPage(idx) {
			if bytes.Equal(fr[off:int(off)+c], data[:c]) {
				pa += uint32(c)
				data = data[c:]
				continue
			}
			fr = m.faultPage(idx)
		}
		if pg := m.pages[idx]; pg != nil {
			pg.valid = [instsPerPage / 64]uint64{}
			pg.dropTraces()
		}
		copy(fr[off:], data[:c])
		pa += uint32(c)
		data = data[c:]
	}
}

// LoadProgram writes an assembled image into RAM at its origin and sets
// PC to entry.
func (m *Machine) LoadProgram(origin uint32, words []uint32, entry uint32) {
	for i, w := range words {
		m.StorePhys32(origin+uint32(4*i), w)
	}
	m.PC = entry
}

// Digest returns a deterministic hash of the architected register state
// (registers, PC, PSW, non-environment control registers). Replica
// coordination uses it to detect divergence between primary and backup.
// It is the word hash (snapshot.Mix) over the 40 fields, two to a 64-bit
// lane, so any difference confined to one lane — one field, or two fields
// sharing a lane — always changes it. Environment CRs are left out: TOD
// is environment, EIRR reflects device lines, and ITMR/RCTR are managed
// by the hypervisor under replication (EIEM goes with EIRR).
func (m *Machine) Digest() uint64 {
	h := uint64(snapshot.HashBasis)
	for i := 0; i < len(m.Regs); i += 2 {
		h = snapshot.Mix(h, uint64(m.Regs[i])|uint64(m.Regs[i+1])<<32)
	}
	c := &m.CRs
	h = snapshot.Mix(h, uint64(m.PC)|uint64(m.PSW)<<32)
	h = snapshot.Mix(h, uint64(c[isa.CRIVA])|uint64(c[isa.CRISR])<<32)
	h = snapshot.Mix(h, uint64(c[isa.CRIOR])|uint64(c[isa.CRIPSW])<<32)
	return snapshot.Mix(h, uint64(c[isa.CRIIA])|uint64(c[isa.CRPTBR])<<32)
}

// DigestMemory extends Digest with a hash of physical RAM as its
// canonical sparse page set (sparsePages: ascending, all-zero pages
// skipped, each page's index mixed in) — what a capture holds and
// State.Code writes: the word hash, continued from Digest's state. Used by
// tests comparing machines.
func (m *Machine) DigestMemory() uint64 {
	h := m.Digest()
	for _, pg := range m.sparsePages(nil, false) {
		h = snapshot.MixBytes(snapshot.Mix(h, uint64(pg.Index)), pg.Data)
	}
	return h
}
