package snapshot

import (
	"errors"
	"repro/internal/console"
	"repro/internal/device"
	"repro/internal/scsi"
	"testing"

	"repro/internal/hypervisor"
	"repro/internal/machine"
	"repro/internal/replication"
)

// TestCodecRoundTrip pins primitive encode/decode symmetry.
func TestCodecRoundTrip(t *testing.T) {
	w := NewWriter("TESTMAG1")
	w.U8(7)
	w.Bool(true)
	w.U32(0xDEADBEEF)
	w.U64(1<<63 | 12345)
	w.I64(-42)
	w.Int(-7)
	w.Bytes([]byte{1, 2, 3})
	w.String("hello")
	blob := w.Finish()

	r, err := NewReader(blob, "TESTMAG1")
	if err != nil {
		t.Fatal(err)
	}
	if v := r.U8(); v != 7 {
		t.Fatalf("U8 = %d", v)
	}
	if !r.Bool() {
		t.Fatal("Bool = false")
	}
	if v := r.U32(); v != 0xDEADBEEF {
		t.Fatalf("U32 = %#x", v)
	}
	if v := r.U64(); v != 1<<63|12345 {
		t.Fatalf("U64 = %#x", v)
	}
	if v := r.I64(); v != -42 {
		t.Fatalf("I64 = %d", v)
	}
	if v := r.Int(); v != -7 {
		t.Fatalf("Int = %d", v)
	}
	if b := r.Bytes(); string(b) != "\x01\x02\x03" {
		t.Fatalf("Bytes = %v", b)
	}
	if s := r.String(); s != "hello" {
		t.Fatalf("String = %q", s)
	}
	if r.Remaining() != 0 || r.Err() != nil {
		t.Fatalf("remaining %d, err %v", r.Remaining(), r.Err())
	}
}

// TestReaderRejects pins the structural gates.
func TestReaderRejects(t *testing.T) {
	blob := NewWriter("TESTMAG1").Finish()
	if _, err := NewReader(blob, "OTHERMAG"); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("wrong magic: %v", err)
	}
	if _, err := NewReader(blob[:5], "TESTMAG1"); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("truncated: %v", err)
	}
	bad := append([]byte(nil), blob...)
	bad[len(bad)-1]++
	if _, err := NewReader(bad, "TESTMAG1"); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("bad checksum: %v", err)
	}
	ver := append([]byte(nil), blob...)
	ver[8]++ // version word
	// Reseal so the checksum gate passes and the version gate is hit.
	h := fnvSum(ver[:len(ver)-8])
	for i := 0; i < 8; i++ {
		ver[len(ver)-8+i] = byte(h >> (8 * i))
	}
	if _, err := NewReader(ver, "TESTMAG1"); !errors.Is(err, ErrVersion) {
		t.Fatalf("future version: %v", err)
	}
}

// TestTransferRoundTrip pins the state-transfer blob: a full machine +
// hypervisor capture survives encode/decode bit-for-bit, including
// sparse RAM, TLB recency, buffered interrupts with DMA payloads and
// adapter latches.
func TestTransferRoundTrip(t *testing.T) {
	m := machine.New(machine.Config{MemBytes: 1 << 20, TLBSize: 8})
	m.StorePhys32(0x1000, 0x12345678)
	m.StorePhys32(0xFF000, 0xCAFEBABE)
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

	in := Transfer{
		Machine:    m.CaptureState(),
		Hypervisor: hv.CaptureState(),
		Tme:        777,
		Epoch:      42,
	}
	blob := EncodeTransfer(in)
	out, err := DecodeTransfer(blob)
	if err != nil {
		t.Fatal(err)
	}
	// Re-encoding the decoded transfer must reproduce the blob exactly
	// (deterministic encoding is what the wire-size charge and the
	// restore verification rely on).
	if string(EncodeTransfer(out)) != string(blob) {
		t.Fatal("transfer re-encoding differs")
	}
	if out.Tme != 777 || out.Epoch != 42 {
		t.Fatalf("scalars: %+v", out)
	}

	// Applying the decoded state must reproduce the machine.
	m2 := machine.New(machine.Config{MemBytes: 1 << 20, TLBSize: 8})
	if err := m2.RestoreState(out.Machine); err != nil {
		t.Fatal(err)
	}
	if m2.Digest() != m.Digest() || m2.DigestMemory() != m.DigestMemory() {
		t.Fatal("restored machine differs")
	}
}

// TestCoordinatorBackupStateCodec round-trips the replication capture
// encoders through re-encoding equality.
func TestCoordinatorBackupStateCodec(t *testing.T) {
	cs := replication.CoordinatorState{
		Seq:       9,
		PeerAcked: []uint64{9, 7},
		IntIndex:  3,
		Pending:   []replication.PendingAckState{{Epoch: 4, Seq: 8}},
		Released:  3, HaveReleased: true,
		Archive: []replication.SyncEpoch{{
			Epoch: 4, Tme: 100, Digest: 0xAB, Halted: false,
			Ints: []replication.Interrupt{{Line: 1, Completion: device.Completion{Data: []byte{1}}}},
		}},
	}
	w := NewWriter("TESTMAG1")
	PutCoordinatorState(w, cs)
	blob := w.Finish()
	r, err := NewReader(blob, "TESTMAG1")
	if err != nil {
		t.Fatal(err)
	}
	got := CoordinatorState(r)
	w2 := NewWriter("TESTMAG1")
	PutCoordinatorState(w2, got)
	if string(w2.Finish()) != string(blob) {
		t.Fatal("coordinator state re-encoding differs")
	}

	bs := replication.BackupState{
		Index: 2, Completed: 5, BootTOD: 50,
		Pending: []replication.PendingEpochState{{
			Epoch:  5,
			Ints:   []replication.PendingInterrupt{{Index: 0, Int: replication.Interrupt{Line: 1}}},
			HasTme: true, Tme: 123,
			HasEnd: true, End: replication.PendingEnd{Seq: 7, Digest: 0xCD},
		}},
		Coordinator: &cs,
	}
	w3 := NewWriter("TESTMAG1")
	PutBackupState(w3, bs)
	blob3 := w3.Finish()
	r3, err := NewReader(blob3, "TESTMAG1")
	if err != nil {
		t.Fatal(err)
	}
	got3 := BackupState(r3)
	w4 := NewWriter("TESTMAG1")
	PutBackupState(w4, got3)
	if string(w4.Finish()) != string(blob3) {
		t.Fatal("backup state re-encoding differs")
	}
}

// fnvSum is a local FNV-64a for the version-reseal helper.
func fnvSum(b []byte) uint64 {
	h := uint64(14695981039346656037)
	for _, c := range b {
		h ^= uint64(c)
		h *= 1099511628211
	}
	return h
}
