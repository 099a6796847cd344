package snapshot

// Native fuzz targets for the two decoders that face bytes from outside
// the process (a state transfer off the link, a machine section out of
// a checkpoint file). One property covers both robustness and
// canonical form: a blob that decodes at all re-encodes to exactly the
// input — so "re-save is byte-identical" follows from "it decoded", and
// a decoder that over-allocates, panics or accepts a second spelling of
// some state fails the target. The fuzzed input is the blob's BODY: the
// target adds the header and a valid checksum itself, so mutations
// reach the decoders instead of dying at the checksum gate.

import (
	"bytes"
	"testing"

	"repro/internal/console"
	"repro/internal/device"
	"repro/internal/hypervisor"
	"repro/internal/machine"
	"repro/internal/scsi"
)

// sampleTransfer builds a transfer with every optional structure
// populated: sparse RAM with a short tail page, a TLB entry, attached
// devices, a buffered interrupt carrying DMA data.
func sampleTransfer(memBytes uint32) Transfer {
	m := machine.New(machine.Config{MemBytes: memBytes, TLBSize: 8})
	m.StorePhys32(0x1000, 0x12345678)
	m.StorePhys32(memBytes-4, 0xCAFEBABE)
	m.Regs[5] = 99
	m.PC = 0x1000
	m.TLB.Insert(machine.TLBEntry{VPN: 3, PPN: 7, Flags: 0xF})

	hv := hypervisor.New(m, hypervisor.Config{EpochLength: 1024})
	hv.AttachDevice(device.Window{ID: "disk0", Base: 0x0, Size: scsi.AdapterWindow, Line: 1}, scsi.NewShadow())
	hv.AttachDevice(device.Window{ID: "console", Base: 0x1000, Size: console.Window, Line: 2, Unsolicited: true}, console.NewShadow())
	hv.BufferInterrupt(hypervisor.Interrupt{
		Line: 1, Dev: 0,
		Completion: device.Completion{Status: 2, Addr: 0x3000, Data: []byte{9, 8, 7}},
	})
	return Transfer{Machine: m.CaptureState(), Hypervisor: hv.CaptureState(), Tme: 777, Epoch: 42}
}

// body strips a blob's header and checksum trailer; seal restores them.
func body(blob []byte) []byte { return blob[8+4 : len(blob)-8] }

func seal(magic string, body []byte) []byte {
	w := NewWriter(magic)
	w.buf = append(w.buf, body...)
	return w.Finish()
}

func FuzzDecodeTransfer(f *testing.F) {
	f.Add(body(EncodeTransfer(sampleTransfer(3 << 12))))
	f.Add(body(EncodeTransfer(sampleTransfer(2<<12 + 100))))
	f.Add(body(EncodeTransfer(Transfer{})))
	f.Fuzz(func(t *testing.T, in []byte) {
		blob := seal(TransferMagic, in)
		tr, err := DecodeTransfer(blob)
		if err != nil {
			return
		}
		if again := EncodeTransfer(tr); !bytes.Equal(again, blob) {
			t.Fatalf("decoded transfer re-encodes to %d bytes, input was %d (first difference at %d)",
				len(again), len(blob), firstDiff(again, blob))
		}
	})
}

func FuzzMachineState(f *testing.F) {
	f.Add(body(encodeMachine(sampleTransfer(3 << 12).Machine)))
	f.Add(body(encodeMachine(sampleTransfer(2<<12 + 100).Machine)))
	f.Add(body(encodeMachine(machine.State{})))
	f.Fuzz(func(t *testing.T, in []byte) {
		blob := seal(testMagic, in)
		r, err := NewReader(blob, testMagic)
		if err != nil {
			t.Fatal(err)
		}
		s := MachineState(r)
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
		m := machine.New(machine.Config{MemBytes: s.MemBytes, TLBSize: len(s.TLB.Slots)})
		if err := m.RestoreState(s); err == nil && !bytes.Equal(encodeRAM(m.BorrowState()), encodeRAM(s)) {
			t.Fatal("restored machine's RAM encodes differently from the state it restored")
		}
		m.Release()
	})
}
