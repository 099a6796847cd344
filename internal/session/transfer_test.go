package session

// Tests for the state-transfer blob, the composite format addbackup.go
// owns: round trip, and a native fuzz target for the one decoder that
// faces bytes from outside the process (the blob comes off a link).

import (
	"bytes"
	"encoding/binary"
	"testing"

	"repro/internal/device"
	"repro/internal/hypervisor"
	"repro/internal/machine"
	"repro/internal/platform"
	"repro/internal/sim"
	"repro/internal/snapshot"
)

// transferNode builds one processor wired like every session node with
// a NIC: disk, console and NIC shadows attached to its hypervisor.
func transferNode(t testing.TB, memBytes uint32, tlbSlots int) *platform.Node {
	k := sim.NewKernel(1)
	t.Cleanup(k.Shutdown)
	c := platform.NewCluster(k, platform.Config{
		NICRequests: 1,
		Machine:     machine.Config{MemBytes: memBytes, TLBSize: tlbSlots},
	}, 1)
	t.Cleanup(c.Release)
	return c.Nodes[0]
}

// sampleNode drives a node into a state with every optional structure
// populated: sparse RAM with a short tail page, a TLB entry, the three
// shadow devices (the NIC's holding a delivered request frame), a
// buffered interrupt carrying DMA data.
func sampleNode(t testing.TB, memBytes uint32) *platform.Node {
	node := transferNode(t, memBytes, 8)
	m, hv := node.M, node.HV
	m.StorePhys32(0x1000, 0x12345678)
	m.StorePhys32(memBytes-4, 0xCAFEBABE)
	m.Regs[5] = 99
	m.PC = 0x1000
	m.TLB.Insert(machine.TLBEntry{VPN: 3, PPN: 7, Flags: 0xF})

	frame := binary.LittleEndian.AppendUint32(binary.LittleEndian.AppendUint32(binary.LittleEndian.AppendUint32(nil, 1), 1), 0xAB) // [seq, nwords, word]
	hv.BufferInterrupt(hypervisor.Interrupt{
		Line: platform.NICIRQLine, Dev: platform.NICBase,
		Completion: device.Completion{Data: frame, Seq: 1},
	})
	hv.DeliverBuffered()
	hv.BufferInterrupt(hypervisor.Interrupt{
		Line: platform.DiskIRQLine, Dev: platform.AdapterBase,
		Completion: device.Completion{Status: 2, Addr: 0x3000, Data: []byte{9, 8, 7}},
	})
	return node
}

func transferOf(n *platform.Node) transfer {
	return transfer{Machine: n.M.BorrowState(), Hypervisor: n.HV.CaptureState(), Tme: 777, Epoch: 42}
}

// sealTransfer encodes t into w, a writer started with
// snapshot.TransferMagic, and returns the blob.
func sealTransfer(t transfer, w *snapshot.Writer) []byte {
	t.code(w.Codec())
	return w.Finish()
}

// openTransfer decodes a transfer blob as the joiner's install does.
func openTransfer(blob []byte) (transfer, error) {
	var t transfer
	r, err := snapshot.NewReader(blob, snapshot.TransferMagic)
	if err != nil {
		return t, err
	}
	t.code(r.Codec())
	return t, r.Done()
}

// TestTransferRoundTrip pins the state-transfer blob: a full machine +
// hypervisor capture survives encode/decode bit-for-bit, including
// sparse RAM, TLB recency, buffered interrupts with DMA payloads and
// adapter latches.
func TestTransferRoundTrip(t *testing.T) {
	const memBytes = 1 << 20
	src := sampleNode(t, memBytes)
	blob := sealTransfer(transferOf(src), snapshot.NewWriter(snapshot.TransferMagic))
	out, err := openTransfer(blob)
	if err != nil {
		t.Fatal(err)
	}
	// Re-encoding the decoded transfer must reproduce the blob exactly
	// (deterministic encoding is what the wire-size charge and the
	// restore verification rely on).
	if !bytes.Equal(sealTransfer(out, snapshot.NewWriter(snapshot.TransferMagic)), blob) {
		t.Fatal("transfer re-encoding differs")
	}
	if out.Tme != 777 || out.Epoch != 42 {
		t.Fatalf("scalars: %+v", out)
	}

	// Applying the decoded state must reproduce the machine.
	dst := transferNode(t, memBytes, 8).M
	if err := dst.RestoreState(out.Machine); err != nil {
		t.Fatal(err)
	}
	if dst.Digest() != src.M.Digest() || dst.DigestMemory() != src.M.DigestMemory() {
		t.Fatal("restored machine differs")
	}
}

// FuzzDecodeTransfer: one property covers both robustness and
// canonical form. A blob that decodes at all re-encodes to exactly the
// input — so "re-save is byte-identical" follows from "it decoded", and
// a decoder that over-allocates, panics or accepts a second spelling of
// some state fails the target. What decodes is then restored into a
// node the way the AddBackup joiner does, which is where the shadow
// devices' own decoders run (hv.RestoreState → Shadow.CodeState):
// restore accepts or refuses, never panics, and an accepted hypervisor
// state re-captures to the bytes it came from. The fuzzed input is the
// blob's BODY: the target adds the header and a valid checksum itself,
// so mutations reach the decoders instead of dying at the checksum gate.
func FuzzDecodeTransfer(f *testing.F) {
	body := func(blob []byte) []byte { return blob[8+4 : len(blob)-8] }
	f.Add(body(sealTransfer(transferOf(sampleNode(f, 3<<12)), snapshot.NewWriter(snapshot.TransferMagic))))
	f.Add(body(sealTransfer(transferOf(sampleNode(f, 2<<12+100)), snapshot.NewWriter(snapshot.TransferMagic))))
	f.Add(body(sealTransfer(transfer{}, snapshot.NewWriter(snapshot.TransferMagic))))
	f.Fuzz(func(t *testing.T, in []byte) {
		w := snapshot.NewWriter(snapshot.TransferMagic)
		for _, b := range in {
			w.U8(b)
		}
		blob := w.Finish()
		tr, err := openTransfer(blob)
		if err != nil {
			return
		}
		if again := sealTransfer(tr, snapshot.NewWriter(snapshot.TransferMagic)); !bytes.Equal(again, blob) {
			t.Fatalf("decoded transfer re-encodes to %d bytes, input was %d", len(again), len(blob))
		}
		ms := tr.Machine
		if ms.MemBytes == 0 || ms.MemBytes > 1<<20 || len(ms.TLB.Slots) == 0 || len(ms.TLB.Slots) > 64 {
			return
		}
		node := transferNode(t, ms.MemBytes, len(ms.TLB.Slots))
		if node.M.RestoreState(ms) != nil || node.HV.RestoreState(tr.Hypervisor) != nil {
			return
		}
		want, got := snapshot.NewWriter(SectionMagic), snapshot.NewWriter(SectionMagic)
		tr.Hypervisor.Code(want.Codec())
		hs := node.HV.CaptureState()
		hs.Code(got.Codec())
		if !bytes.Equal(got.Finish(), want.Finish()) {
			t.Fatal("restored hypervisor re-captures differently from the state it restored")
		}
	})
}
