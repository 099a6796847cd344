package snapshot

import (
	"bytes"
	"fmt"

	"repro/internal/hypervisor"
	"repro/internal/isa"
	"repro/internal/machine"
	"repro/internal/replication"
	"repro/internal/sim"
)

// TransferMagic opens a live state-transfer blob (AddBackup's payload
// on the simulated link).
const TransferMagic = "HFTXFER1"

// RAM images are encoded sparsely: only pages containing a nonzero
// byte are written. The guest kernel's footprint is a small fraction
// of physical RAM, and the blob's length is what the simulated link
// charges for — an idle-page-free image is what a real state-transfer
// implementation would ship too (VMware FT and Remus both elide
// untouched pages).
//
// The encoding is canonical — RAM size, page count, then (index,
// length-prefixed data) per page with strictly ascending indices, full
// pages except for the tail of an unaligned RAM, and no all-zero page —
// so a RAM image has exactly one encoding: machine.State.Pages holds
// that page set and the decoder accepts nothing else, which is what
// makes "decode, re-encode, compare bytes" a sound verification.

// ramEntryMin is the least a page entry occupies: index + data length.
const ramEntryMin = 8

// putRAM writes a RAM image from its canonical sparse page set.
func putRAM(w *Writer, size uint32, pages []machine.Page) {
	w.U32(size)
	w.U32(uint32(len(pages)))
	for _, pg := range pages {
		w.U32(pg.Index)
		w.Bytes(pg.Data)
	}
}

// ramPages reads a RAM image of the given size as its sparse page set.
// Page data aliases the reader's blob; nothing RAM-sized is allocated.
func ramPages(r *Reader, size uint32) []machine.Page {
	if r.U32() != size {
		r.fail()
		return nil
	}
	npages := (uint64(size) + isa.PageSize - 1) >> isa.PageShift
	n := r.Count(ramEntryMin)
	if r.Err() != nil || uint64(n) > npages {
		r.fail()
		return nil
	}
	pages := make([]machine.Page, 0, n)
	for i := 0; i < n; i++ {
		idx := r.U32()
		data := r.View()
		if r.Err() != nil {
			return nil
		}
		want := min(uint64(size)-uint64(idx)<<isa.PageShift, isa.PageSize)
		if uint64(idx) >= npages || (i > 0 && idx <= pages[i-1].Index) ||
			uint64(len(data)) != want || bytes.Equal(data, zeros[:len(data)]) {
			r.fail()
			return nil
		}
		pages = append(pages, machine.Page{Index: idx, Data: data})
	}
	return pages
}

// zeros is the all-zero page the decoder tests explicit pages against.
var zeros [isa.PageSize]byte

// PutMachineState encodes a machine capture.
func PutMachineState(w *Writer, s machine.State) {
	w.U32(s.MemBytes)
	for _, v := range s.Regs {
		w.U32(v)
	}
	w.U32(s.PC)
	w.U32(s.PSW)
	for _, v := range s.CRs {
		w.U32(v)
	}
	w.Bool(s.Halted)
	w.U64(s.Cycles)
	putMachineStats(w, s.Stats)
	putRAM(w, s.MemBytes, s.Pages)
	putTLBState(w, s.TLB)
}

// MachineState decodes a machine capture. Its RAM pages alias the
// reader's blob.
func MachineState(r *Reader) machine.State {
	var s machine.State
	s.MemBytes = r.U32()
	for i := range s.Regs {
		s.Regs[i] = r.U32()
	}
	s.PC = r.U32()
	s.PSW = r.U32()
	for i := range s.CRs {
		s.CRs[i] = r.U32()
	}
	s.Halted = r.Bool()
	s.Cycles = r.U64()
	s.Stats = machineStats(r)
	s.Pages = ramPages(r, s.MemBytes)
	s.TLB = tlbState(r)
	return s
}

func putMachineStats(w *Writer, s machine.Stats) {
	w.U64(s.Instructions)
	w.U64(s.Privileged)
	w.U64(s.Environment)
	w.U64(s.Loads)
	w.U64(s.Stores)
	w.U64(s.Branches)
	w.U64(s.Traps)
}

func machineStats(r *Reader) machine.Stats {
	return machine.Stats{
		Instructions: r.U64(),
		Privileged:   r.U64(),
		Environment:  r.U64(),
		Loads:        r.U64(),
		Stores:       r.U64(),
		Branches:     r.U64(),
		Traps:        r.U64(),
	}
}

func putTLBState(w *Writer, s machine.TLBState) {
	w.String(s.Policy)
	w.U64(s.Stamp)
	w.Int(s.Next)
	w.Int(s.Pending)
	w.U64(s.Stats.Hits)
	w.U64(s.Stats.Misses)
	w.U64(s.Stats.Inserts)
	w.U64(s.Stats.Evicts)
	w.U64(s.Stats.Purges)
	w.U32(uint32(len(s.Slots)))
	for _, sl := range s.Slots {
		w.U32(sl.Entry.VPN)
		w.U32(sl.Entry.PPN)
		w.U32(sl.Entry.Flags)
		w.Bool(sl.Entry.Valid)
		w.U64(sl.LastUse)
	}
}

// tlbSlotBytes is the encoded size of one TLB slot.
const tlbSlotBytes = 4 + 4 + 4 + 1 + 8

func tlbState(r *Reader) machine.TLBState {
	var s machine.TLBState
	s.Policy = r.String()
	s.Stamp = r.U64()
	s.Next = r.Int()
	s.Pending = r.Int()
	s.Stats.Hits = r.U64()
	s.Stats.Misses = r.U64()
	s.Stats.Inserts = r.U64()
	s.Stats.Evicts = r.U64()
	s.Stats.Purges = r.U64()
	n := r.Count(tlbSlotBytes)
	if r.Err() != nil {
		return s
	}
	s.Slots = make([]machine.TLBSlotState, n)
	for i := range s.Slots {
		s.Slots[i].Entry.VPN = r.U32()
		s.Slots[i].Entry.PPN = r.U32()
		s.Slots[i].Entry.Flags = r.U32()
		s.Slots[i].Entry.Valid = r.Bool()
		s.Slots[i].LastUse = r.U64()
	}
	return s
}

// PutInterrupt encodes one buffered virtual interrupt.
func PutInterrupt(w *Writer, i hypervisor.Interrupt) {
	w.U32(uint32(i.Line))
	w.Bool(i.Timer)
	w.U32(i.Dev)
	w.U32(i.Status)
	w.U32(i.Addr)
	w.Bytes(i.Data)
	w.U32(i.Seq)
	w.U32(i.CapturedTOD)
}

// Interrupt decodes one buffered virtual interrupt.
func Interrupt(r *Reader) hypervisor.Interrupt {
	var i hypervisor.Interrupt
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

func putInterrupts(w *Writer, ints []hypervisor.Interrupt) {
	w.U32(uint32(len(ints)))
	for _, i := range ints {
		PutInterrupt(w, i)
	}
}

// interruptMin is the encoded size of an interrupt without bulk data.
const interruptMin = 4 + 1 + 4 + 4 + 4 + 4 + 4 + 4

func interrupts(r *Reader) []hypervisor.Interrupt {
	n := r.Count(interruptMin)
	if n == 0 {
		return nil
	}
	out := make([]hypervisor.Interrupt, n)
	for i := range out {
		out[i] = Interrupt(r)
	}
	return out
}

func putHVStats(w *Writer, s hypervisor.Stats) {
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

func hvStats(r *Reader) hypervisor.Stats {
	var s hypervisor.Stats
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

// PutHypervisorState encodes a hypervisor capture.
func PutHypervisorState(w *Writer, s hypervisor.State) {
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
	putInterrupts(w, s.Buffered)
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
	putHVStats(w, s.Stats)
}

// suppressedBytes is the encoded size of one suppressed output entry.
const suppressedBytes = 4 + 4 + 4 + 4 + 8 + 1 + 8

// HypervisorState decodes a hypervisor capture.
func HypervisorState(r *Reader) hypervisor.State {
	var s hypervisor.State
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
	s.Buffered = interrupts(r)
	n := int(r.U32())
	if r.Err() != nil || n < 0 || n > 1<<8 {
		r.fail()
		return s
	}
	for i := 0; i < n; i++ {
		var d hypervisor.DeviceState
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
		var so hypervisor.SuppressedOutputState
		so.Dev = r.U32()
		so.Off = r.U32()
		so.Val = r.U32()
		so.Ordinal = r.U32()
		so.Epoch = r.U64()
		so.Start = r.Bool()
		so.At = r.U64()
		s.Suppressed = append(s.Suppressed, so)
	}
	s.Stats = hvStats(r)
	return s
}

func putSyncEpoch(w *Writer, e replication.SyncEpoch) {
	w.U64(e.Epoch)
	w.U32(e.Tme)
	w.U64(e.Digest)
	w.Bool(e.Halted)
	putInterrupts(w, e.Ints)
}

func putSyncEpochs(w *Writer, es []replication.SyncEpoch) {
	w.U32(uint32(len(es)))
	for _, e := range es {
		putSyncEpoch(w, e)
	}
}

func putReplStats(w *Writer, s replication.Stats) {
	w.U64(s.Epochs)
	w.U64(s.MessagesSent)
	w.U64(s.BytesSent)
	w.U64(s.AcksReceived)
	w.U64(s.AckWaits)
	w.I64(int64(s.AckWaitTime))
	w.U64(s.IOGateWaits)
	w.I64(int64(s.IOGateWaitTime))
	w.U64(s.IntsForwarded)
	w.U64(s.IntsReceived)
	w.U64(s.Divergences)
	w.U64(s.PeerTimeouts)
	w.U64(s.PromotedAtEpoch)
	w.I64(int64(s.PromotedAtTime))
	w.Bool(s.Promoted)
	w.U64(s.UncertainSynth)
	w.U64(s.OutputsReleased)
}

// PutCoordinatorState encodes a coordinator capture.
func PutCoordinatorState(w *Writer, s replication.CoordinatorState) {
	w.U64(s.Seq)
	w.U32(uint32(len(s.PeerAcked)))
	for _, a := range s.PeerAcked {
		w.U64(a)
	}
	w.U32(s.IntIndex)
	w.U32(uint32(len(s.Pending)))
	for _, e := range s.Pending {
		w.U64(e.Epoch)
		w.U64(e.Seq)
	}
	w.U64(s.Released)
	w.Bool(s.HaveReleased)
	putSyncEpochs(w, s.Archive)
	putReplStats(w, s.Stats)
}

// PutBackupState encodes a backup capture.
func PutBackupState(w *Writer, s replication.BackupState) {
	w.Int(s.Index)
	w.U64(s.Completed)
	w.Bool(s.Promoted)
	w.Bool(s.Failed)
	w.Bool(s.Withdrawn)
	w.Bool(s.Done)
	w.Bool(s.Halted)
	w.U32(s.BootTOD)
	w.U32(uint32(len(s.Pending)))
	for _, pe := range s.Pending {
		w.U64(pe.Epoch)
		w.U32(uint32(len(pe.Ints)))
		for _, pi := range pe.Ints {
			w.U32(pi.Index)
			PutInterrupt(w, pi.Int)
		}
		w.Bool(pe.HasTme)
		w.U32(pe.Tme)
		w.Bool(pe.HasEnd)
		w.U64(pe.End.Seq)
		w.U64(pe.End.Digest)
		w.Bool(pe.End.Halted)
		w.U64(pe.End.Cut)
		w.U64(pe.End.Released)
		w.Bool(pe.End.HaveReleased)
		w.Bool(pe.Verbatim != nil)
		if pe.Verbatim != nil {
			putSyncEpoch(w, *pe.Verbatim)
		}
	}
	putSyncEpochs(w, s.Archive)
	putReplStats(w, s.Stats)
	w.Bool(s.Coordinator != nil)
	if s.Coordinator != nil {
		PutCoordinatorState(w, *s.Coordinator)
	}
}

// Transfer is the payload of a live backup-reintegration state
// transfer: the acting coordinator's complete virtual-machine image as
// of an epoch boundary, plus the boundary's clock value (the Tme the
// joiner resynchronizes from, exactly as rule P5 prescribes for the
// steady state).
type Transfer struct {
	Machine    machine.State
	Hypervisor hypervisor.State
	Tme        uint32
	// Epoch is the boundary's committed epoch; the joiner's first own
	// epoch is Epoch+1.
	Epoch uint64
}

// EncodeTransfer serializes a state transfer. The returned blob's
// length is the wire size charged to the simulated link.
func EncodeTransfer(t Transfer) []byte {
	w := NewWriter(TransferMagic)
	// The blob outlives the call (it rides the link), so it cannot use a
	// pooled buffer; size it once instead. RAM is all but a few KB of it.
	n := 4096
	for _, pg := range t.Machine.Pages {
		n += ramEntryMin + len(pg.Data)
	}
	w.Grow(n)
	PutMachineState(w, t.Machine)
	PutHypervisorState(w, t.Hypervisor)
	w.U32(t.Tme)
	w.U64(t.Epoch)
	return w.Finish()
}

// DecodeTransfer parses a state transfer blob.
func DecodeTransfer(blob []byte) (Transfer, error) {
	r, err := NewReader(blob, TransferMagic)
	if err != nil {
		return Transfer{}, err
	}
	var t Transfer
	t.Machine = MachineState(r)
	t.Hypervisor = HypervisorState(r)
	t.Tme = r.U32()
	t.Epoch = r.U64()
	if err := r.Err(); err != nil {
		return Transfer{}, err
	}
	if r.Remaining() != 0 {
		return Transfer{}, fmt.Errorf("%w: %d trailing bytes", ErrCorrupt, r.Remaining())
	}
	return t, nil
}
