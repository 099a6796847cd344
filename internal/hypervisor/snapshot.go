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
// The hypervisor's byte format lives here and nowhere else
// (State.Encode / DecodeState and the Interrupt pair the replication
// layer's encoders reuse). State is the validate-then-commit staging
// value between the bytes and the live hypervisor: a decoded State has
// touched nothing until RestoreState accepts it, and a State RestoreState
// refuses has touched nothing either.

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

	// Data is the shadow's opaque register state (Shadow.MarshalState).
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
// machine.BorrowState: Buffered aliases the live delivery buffer, so the
// State is valid only until the hypervisor next runs — every caller
// encodes at once.
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
		Stats:           hv.Stats,
	}
	for _, d := range hv.devs {
		s.Devices = append(s.Devices, DeviceState{
			ID: d.win.ID, Base: d.win.Base, Line: d.win.Line,
			Outstanding: d.outstanding, IssuedReal: d.issuedReal,
			OutCount: d.outCount,
			Data:     d.sh.MarshalState(),
		})
	}
	for _, so := range hv.suppressed {
		s.Suppressed = append(s.Suppressed, SuppressedOutputState{
			Dev: so.dev.win.Base, Off: so.off, Val: so.val, Ordinal: so.ordinal,
			Epoch: so.epoch, Start: so.start, At: uint64(so.at),
		})
	}
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
	// The shadows decode their own bytes, each all-or-nothing. They are
	// the one check that writes; if one refuses, those already written
	// are put back.
	undo := make([][]byte, 0, len(hv.devs))
	for i, d := range hv.devs {
		prev := d.sh.MarshalState()
		if err := d.sh.UnmarshalState(s.Devices[i].Data); err != nil {
			for j, b := range undo {
				// A shadow's own encoding of a moment ago: cannot be refused.
				_ = hv.devs[j].sh.UnmarshalState(b)
			}
			return fmt.Errorf("hypervisor: restore: device %q: %v", d.win.ID, err)
		}
		undo = append(undo, prev)
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

// Encode appends one buffered virtual interrupt to w.
func (i Interrupt) Encode(w *snapshot.Writer) {
	w.U32(uint32(i.Line))
	w.Bool(i.Timer)
	w.U32(i.Dev)
	w.U32(i.Status)
	w.U32(i.Addr)
	w.Bytes(i.Data)
	w.U32(i.Seq)
	w.U32(i.CapturedTOD)
}

// DecodeInterrupt reads one interrupt written by Interrupt.Encode;
// failures latch on r.
func DecodeInterrupt(r *snapshot.Reader) Interrupt {
	var i Interrupt
	i.Line = uint(r.U32())
	i.Timer = r.Bool()
	i.Dev = r.U32()
	i.Status = r.U32()
	i.Addr = r.U32()
	if b := r.Bytes(); len(b) > 0 {
		i.Data = b
	}
	i.Seq = r.U32()
	i.CapturedTOD = r.U32()
	return i
}

// Encoded sizes the decoder bounds its allocations by: an interrupt
// without bulk data, one suppressed-output entry.
const (
	interruptMin    = 4 + 1 + 4 + 4 + 4 + 4 + 4 + 4
	suppressedBytes = 4 + 4 + 4 + 4 + 8 + 1 + 8
)

// Encode appends the capture to w.
func (s State) Encode(w *snapshot.Writer) {
	for _, v := range s.VCR {
		w.U32(v)
	}
	w.U32(s.VPSW)
	w.Bool(s.VITMRArmed)
	w.U32(s.VITMRDeadline)
	w.U32(s.TODBase)
	w.U64(s.EpochStartInstr)
	w.U64(s.GuestInstr)
	w.U64(s.Epoch)
	w.Bool(s.Halted)
	w.Bool(s.IOActive)
	w.U32(uint32(len(s.Buffered)))
	for _, i := range s.Buffered {
		i.Encode(w)
	}
	w.U32(uint32(len(s.Devices)))
	for _, d := range s.Devices {
		w.String(d.ID)
		w.U32(d.Base)
		w.U32(uint32(d.Line))
		w.Bool(d.Outstanding)
		w.Bool(d.IssuedReal)
		w.U32(d.OutCount)
		w.Bytes(d.Data)
	}
	w.U32(uint32(len(s.Suppressed)))
	for _, so := range s.Suppressed {
		w.U32(so.Dev)
		w.U32(so.Off)
		w.U32(so.Val)
		w.U32(so.Ordinal)
		w.U64(so.Epoch)
		w.Bool(so.Start)
		w.U64(so.At)
	}
	s.Stats.encode(w)
}

// DecodeState reads a capture written by Encode; failures latch on r.
// Every allocation is bounded by the bytes that remain, never by a
// count the blob claims.
func DecodeState(r *snapshot.Reader) State {
	var s State
	for i := range s.VCR {
		s.VCR[i] = r.U32()
	}
	s.VPSW = r.U32()
	s.VITMRArmed = r.Bool()
	s.VITMRDeadline = r.U32()
	s.TODBase = r.U32()
	s.EpochStartInstr = r.U64()
	s.GuestInstr = r.U64()
	s.Epoch = r.U64()
	s.Halted = r.Bool()
	s.IOActive = r.Bool()
	if n := r.Count(interruptMin); n > 0 {
		s.Buffered = make([]Interrupt, n)
		for i := range s.Buffered {
			s.Buffered[i] = DecodeInterrupt(r)
		}
	}
	n := int(r.U32())
	if r.Err() != nil || n < 0 || n > 1<<8 {
		r.Fail()
		return s
	}
	for i := 0; i < n; i++ {
		var d DeviceState
		d.ID = r.String()
		d.Base = r.U32()
		d.Line = uint(r.U32())
		d.Outstanding = r.Bool()
		d.IssuedReal = r.Bool()
		d.OutCount = r.U32()
		d.Data = r.Bytes()
		s.Devices = append(s.Devices, d)
	}
	n = r.Count(suppressedBytes)
	for i := 0; i < n; i++ {
		var so SuppressedOutputState
		so.Dev = r.U32()
		so.Off = r.U32()
		so.Val = r.U32()
		so.Ordinal = r.U32()
		so.Epoch = r.U64()
		so.Start = r.Bool()
		so.At = r.U64()
		s.Suppressed = append(s.Suppressed, so)
	}
	s.Stats = decodeStats(r)
	return s
}

func (s Stats) encode(w *snapshot.Writer) {
	w.U64(s.GuestInstructions)
	w.U64(s.Epochs)
	w.U64(s.PrivSimulated)
	w.U64(s.EnvSimulated)
	w.U64(s.TLBFills)
	w.U64(s.ReflectedTraps)
	w.U64(s.VIRQDelivered)
	w.U64(s.IOIssued)
	w.U64(s.IOSuppressed)
	w.U64(s.ConsoleSuppressed)
	w.U64(s.Captured)
	w.U64(s.OutputsDeferred)
	w.U64(s.StartsDeferred)
	w.U64(s.AdaptiveCuts)
	w.I64(int64(s.HypervisorTime))
	w.I64(int64(s.DeliveryDelayTotal))
	w.U64(s.DeliveryDelayCount)
}

func decodeStats(r *snapshot.Reader) Stats {
	var s Stats
	s.GuestInstructions = r.U64()
	s.Epochs = r.U64()
	s.PrivSimulated = r.U64()
	s.EnvSimulated = r.U64()
	s.TLBFills = r.U64()
	s.ReflectedTraps = r.U64()
	s.VIRQDelivered = r.U64()
	s.IOIssued = r.U64()
	s.IOSuppressed = r.U64()
	s.ConsoleSuppressed = r.U64()
	s.Captured = r.U64()
	s.OutputsDeferred = r.U64()
	s.StartsDeferred = r.U64()
	s.AdaptiveCuts = r.U64()
	s.HypervisorTime = sim.Time(r.I64())
	s.DeliveryDelayTotal = sim.Time(r.I64())
	s.DeliveryDelayCount = r.U64()
	return s
}
