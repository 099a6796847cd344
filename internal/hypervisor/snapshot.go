package hypervisor

// This file captures and restores the hypervisor's virtualization
// state — the other half of a complete virtual-machine image beside
// machine.State. A backup reintegrated by state transfer must agree
// with the acting coordinator not only on guest-architected state but
// on every piece of VIRTUAL state the hypervisor synthesizes
// deterministically from it: virtual control registers, the virtual
// PSW, the epoch-synchronized clock base, the virtual interval timer,
// the interrupt delivery buffer, and the ordered device table's shadow
// state — per-device register banks (opaque, serialized by each
// shadow), the protocol latches (outstanding/issued-real — the set rule
// P7 synthesizes uncertain interrupts for at failover), the output
// ordinal counters, and any suppressed-output buffer.
//
// The hypervisor's byte format lives here and nowhere else: State.Code,
// and Interrupt.Code, which the replication layer's encoders reuse —
// each one description of its format that both writes and reads it.
// State is the validate-then-commit staging value between the bytes and
// the live hypervisor: a decoded State has touched nothing until
// RestoreState accepts it, and a State RestoreState refuses has touched
// nothing either.

import (
	"fmt"

	"repro/internal/isa"
	"repro/internal/sim"
	"repro/internal/snapshot"
)

// DeviceState is one captured shadow-device binding: the window
// identity, the device-generic protocol latches, and the shadow's own
// serialized register state.
type DeviceState struct {
	ID   string
	Base uint32
	Line uint

	// Outstanding marks a started operation whose completion has not
	// been delivered to the guest (P7's synthesis set).
	Outstanding bool
	// IssuedReal marks that the operation was forwarded to real
	// hardware. A state transfer clears it on the receiving side: the
	// new backup issued nothing, so completions raised by its own
	// devices must be ignored (rule P3).
	IssuedReal bool
	// OutCount is the device's output-ordinal counter (environment
	// output dedup watermarking).
	OutCount uint32

	// Data is the shadow's opaque register state (Shadow.CodeState).
	Data []byte
}

// SuppressedOutputState is one buffered suppressed (or output-commit
// deferred) output store.
type SuppressedOutputState struct {
	Dev     uint32 // window base of the device
	Off     uint32
	Val     uint32
	Ordinal uint32
	Epoch   uint64 // epoch the store retired in (release/drop watermark)
	Start   bool   // deferred I/O start (doorbell) rather than an output store
	At      uint64 // generation time, virtual ns (commit-latency accounting)
}

// State is a complete capture of one hypervisor's virtualization state.
type State struct {
	VCR           [isa.NumCRs]uint32
	VPSW          uint32
	VITMRArmed    bool
	VITMRDeadline uint32

	TODBase         uint32
	EpochStartInstr uint64

	GuestInstr uint64
	Epoch      uint64
	Halted     bool
	IOActive   bool

	// Buffered is the interrupt delivery buffer (pending for the next
	// epoch boundary). Empty when captured at a boundary after
	// DeliverBuffered — the quiescent point state transfer uses.
	Buffered []Interrupt

	// Devices holds the shadow device table in window order.
	Devices []DeviceState

	// Suppressed is the current epoch's suppressed-output buffer
	// (backup side; empty on an I/O-active hypervisor).
	Suppressed []SuppressedOutputState

	Stats Stats
}

// CaptureState snapshots the hypervisor. Read-only, and a borrow like
// machine.BorrowState: Buffered aliases the live delivery buffer, each
// device's Data the buffer the shadows are coded into, and Devices and
// Suppressed are storage the hypervisor keeps, reused by its next capture
// (and across recycling, so a warm capture allocates nothing). The State
// is valid only until the hypervisor next runs or captures — every
// caller encodes at once.
func (hv *Hypervisor) CaptureState() State {
	s := State{
		VCR:             hv.vCR,
		VPSW:            hv.vPSW,
		VITMRArmed:      hv.vITMRArmed,
		VITMRDeadline:   hv.vITMRDeadline,
		TODBase:         hv.todBase,
		EpochStartInstr: hv.epochStartInstr,
		GuestInstr:      hv.guestInstr,
		Epoch:           hv.epoch,
		Halted:          hv.halted,
		IOActive:        hv.ioActive,
		Buffered:        hv.buffered,
		Devices:         hv.captured.devices[:0],
		Suppressed:      hv.captured.suppressed[:0],
		Stats:           hv.Stats,
	}
	w := &hv.shadowBytes
	w.Truncate(0)
	for _, d := range hv.devs {
		mark := w.Len()
		d.sh.CodeState(w.Codec())
		s.Devices = append(s.Devices, DeviceState{
			ID: d.win.ID, Base: d.win.Base, Line: d.win.Line,
			Outstanding: d.outstanding, IssuedReal: d.issuedReal,
			OutCount: d.outCount,
			Data:     w.Since(mark),
		})
	}
	for _, so := range hv.suppressed {
		s.Suppressed = append(s.Suppressed, SuppressedOutputState{
			Dev: so.dev.win.Base, Off: so.off, Val: so.val, Ordinal: so.ordinal,
			Epoch: so.epoch, Start: so.start, At: uint64(so.at),
		})
	}
	hv.captured = captured{s.Devices, s.Suppressed}
	return s
}

// RestoreState overwrites the hypervisor's virtualization state from a
// capture. The target's attached device table must match the capture's
// (same IDs, bases and lines — the platform wires replicas
// identically). The real machine's PSW is re-projected from the
// restored virtual PSW; restore the machine state first.
//
// Validate-then-commit, like machine.RestoreState: everything the
// capture names is resolved against this hypervisor before anything is
// written, so a refused capture leaves the hypervisor as it was.
func (hv *Hypervisor) RestoreState(s State) error {
	if len(hv.devs) != len(s.Devices) {
		return fmt.Errorf("hypervisor: restore: %d devices attached, capture has %d", len(hv.devs), len(s.Devices))
	}
	for i, d := range hv.devs {
		ds := s.Devices[i]
		if ds.ID != d.win.ID || ds.Base != d.win.Base || ds.Line != d.win.Line {
			return fmt.Errorf("hypervisor: restore: device %d is %q base %#x line %d, capture has %q base %#x line %d",
				i, d.win.ID, d.win.Base, d.win.Line, ds.ID, ds.Base, ds.Line)
		}
	}
	var suppressed []suppressedOutput
	for _, so := range s.Suppressed {
		d := hv.devByBase(so.Dev)
		if d == nil {
			return fmt.Errorf("hypervisor: restore: suppressed output for unknown device %#x", so.Dev)
		}
		suppressed = append(suppressed, suppressedOutput{
			dev: d, off: so.Off, val: so.Val, ordinal: so.Ordinal,
			epoch: so.Epoch, start: so.Start, at: sim.Time(so.At),
		})
	}
	// The shadows decode their own bytes, in place: the one check that
	// writes. Each first writes itself out, past whatever a capture's
	// Data still holds; if one refuses, every shadow decoded so far, the
	// refusing one too, is put back from those bytes — its own encoding
	// of a moment ago, which cannot be refused.
	w, r := &hv.shadowBytes, &hv.shadowReader
	mark := w.Len()
	defer w.Truncate(mark)
	for i, d := range hv.devs {
		d.sh.CodeState(w.Codec())
		r.Nested(s.Devices[i].Data)
		d.sh.CodeState(r.Codec())
		if err := r.Done(); err != nil {
			r.Nested(w.Since(mark))
			for _, u := range hv.devs[:i+1] {
				u.sh.CodeState(r.Codec())
			}
			return fmt.Errorf("hypervisor: restore: device %q: %v", d.win.ID, err)
		}
	}

	hv.vCR = s.VCR
	hv.vPSW = s.VPSW
	hv.vITMRArmed = s.VITMRArmed
	hv.vITMRDeadline = s.VITMRDeadline
	hv.todBase = s.TODBase
	hv.epochStartInstr = s.EpochStartInstr
	hv.guestInstr = s.GuestInstr
	hv.epoch = s.Epoch
	hv.halted = s.Halted
	hv.ioActive = s.IOActive
	hv.run = epochRun{} // not part of a capture: the restored hypervisor is between epochs
	hv.buffered = nil
	for _, i := range s.Buffered {
		ci := i
		if len(i.Data) > 0 {
			ci.Data = append([]byte(nil), i.Data...)
		}
		hv.buffered = append(hv.buffered, ci)
	}
	for i, d := range hv.devs {
		ds := s.Devices[i]
		d.outstanding, d.issuedReal, d.outCount = ds.Outstanding, ds.IssuedReal, ds.OutCount
	}
	hv.suppressed = suppressed
	hv.Stats = s.Stats
	hv.applyVPSW()
	return nil
}

// Code codes one buffered virtual interrupt; an empty payload reads as
// nil.
func (i *Interrupt) Code(c *snapshot.Codec) {
	c.Uint(&i.Line)
	c.Bool(&i.Timer)
	c.U32(&i.Dev)
	c.U32(&i.Status)
	c.U32(&i.Addr)
	c.Bytes(&i.Data)
	c.U32(&i.Seq)
	c.U32(&i.CapturedTOD)
}

// Encoded sizes a decode bounds its allocations by: an interrupt
// without bulk data, a device binding with an empty ID and no shadow
// state, one suppressed-output entry.
const (
	interruptMin    = 4 + 1 + 4 + 4 + 4 + 4 + 4 + 4
	deviceMin       = 4 + 4 + 4 + 1 + 1 + 4 + 4
	suppressedBytes = 4 + 4 + 4 + 4 + 8 + 1 + 8
)

// maxDevices bounds a decoded device table.
const maxDevices = 1 << 8

// Code writes the capture to c or, reading, decodes one into s. Every
// allocation a decode makes is bounded by the bytes that remain, never
// by a count the blob claims.
func (s *State) Code(c *snapshot.Codec) {
	for i := range s.VCR {
		c.U32(&s.VCR[i])
	}
	c.U32(&s.VPSW)
	c.Bool(&s.VITMRArmed)
	c.U32(&s.VITMRDeadline)
	c.U32(&s.TODBase)
	c.U64(&s.EpochStartInstr)
	c.U64(&s.GuestInstr)
	c.U64(&s.Epoch)
	c.Bool(&s.Halted)
	c.Bool(&s.IOActive)
	snapshot.Slice(c, &s.Buffered, interruptMin)
	for i := range s.Buffered {
		s.Buffered[i].Code(c)
	}
	snapshot.Slice(c, &s.Devices, deviceMin)
	if c.Reading() && len(s.Devices) > maxDevices {
		c.Fail()
		return
	}
	for i := range s.Devices {
		d := &s.Devices[i]
		c.String(&d.ID)
		c.U32(&d.Base)
		c.Uint(&d.Line)
		c.Bool(&d.Outstanding)
		c.Bool(&d.IssuedReal)
		c.U32(&d.OutCount)
		c.Bytes(&d.Data)
	}
	snapshot.Slice(c, &s.Suppressed, suppressedBytes)
	for i := range s.Suppressed {
		so := &s.Suppressed[i]
		for _, p := range [...]*uint32{&so.Dev, &so.Off, &so.Val, &so.Ordinal} {
			c.U32(p)
		}
		c.U64(&so.Epoch)
		c.Bool(&so.Start)
		c.U64(&so.At)
	}
	s.Stats.code(c)
}

func (s *Stats) code(c *snapshot.Codec) {
	for _, p := range [...]*uint64{
		&s.GuestInstructions, &s.Epochs, &s.PrivSimulated, &s.EnvSimulated, &s.TLBFills,
		&s.ReflectedTraps, &s.VIRQDelivered, &s.IOIssued, &s.IOSuppressed, &s.ConsoleSuppressed,
		&s.Captured, &s.OutputsDeferred, &s.StartsDeferred, &s.AdaptiveCuts,
	} {
		c.U64(p)
	}
	c.I64((*int64)(&s.HypervisorTime))
	c.I64((*int64)(&s.DeliveryDelayTotal))
	c.U64(&s.DeliveryDelayCount)
}
