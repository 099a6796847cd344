package snapshot

import (
	"errors"
	"fmt"
	"reflect"
	"testing"

	"repro/internal/console"
	"repro/internal/device"
	"repro/internal/hypervisor"
	"repro/internal/machine"
	"repro/internal/replication"
	"repro/internal/scsi"
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

// eachFlip visits every leaf of the addressable value v — fields of
// nested structs, slice elements, one element past each slice's end,
// the target of each pointer (a nil pointer becomes a zero target) —
// and for each one changes it, calls check, and puts it back.
func eachFlip(v reflect.Value, path string, check func(path string)) {
	switch v.Kind() {
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			eachFlip(v.Field(i), path+"."+v.Type().Field(i).Name, check)
		}
		return
	case reflect.Pointer:
		if !v.IsNil() {
			eachFlip(v.Elem(), path, check)
			return
		}
	case reflect.Slice:
		for i := 0; i < v.Len(); i++ {
			eachFlip(v.Index(i), fmt.Sprintf("%s[%d]", path, i), check)
		}
	}
	saved := reflect.New(v.Type()).Elem()
	saved.Set(v)
	switch v.Kind() {
	case reflect.Bool:
		v.SetBool(!v.Bool())
	case reflect.Int, reflect.Int64:
		v.SetInt(v.Int() + 1)
	case reflect.Uint, reflect.Uint8, reflect.Uint32, reflect.Uint64:
		v.SetUint(v.Uint() + 1)
	case reflect.Pointer:
		v.Set(reflect.New(v.Type().Elem()))
	case reflect.Slice:
		v.Set(reflect.Append(v, reflect.Zero(v.Type().Elem())))
	default:
		panic("eachFlip: unhandled kind " + v.Kind().String() + " at " + path)
	}
	check(path)
	v.Set(saved)
}

// TestCoordinatorBackupStateCodec pins what Restore's verification
// relies on. Nothing decodes the replication sections: a restored
// session is checked by comparing its freshly encoded sections to the
// saved bytes, which is sound exactly when equal states encode equal
// and states that differ anywhere encode differently.
func TestCoordinatorBackupStateCodec(t *testing.T) {
	coordinator := func() *replication.CoordinatorState {
		return &replication.CoordinatorState{
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
	}
	backup := func() *replication.BackupState {
		return &replication.BackupState{
			Index: 2, Completed: 5, BootTOD: 50,
			Pending: []replication.PendingEpochState{{
				Epoch:  5,
				Ints:   []replication.PendingInterrupt{{Index: 0, Int: replication.Interrupt{Line: 1}}},
				HasTme: true, Tme: 123,
				HasEnd: true, End: replication.PendingEnd{Seq: 7, Digest: 0xCD},
			}},
			Coordinator: coordinator(),
		}
	}
	for _, c := range []struct {
		name  string
		fresh func() any
		put   func(w *Writer, state any)
	}{
		{"CoordinatorState", func() any { return coordinator() },
			func(w *Writer, s any) { PutCoordinatorState(w, *s.(*replication.CoordinatorState)) }},
		{"BackupState", func() any { return backup() },
			func(w *Writer, s any) { PutBackupState(w, *s.(*replication.BackupState)) }},
	} {
		encode := func(state any) string {
			w := NewWriter("TESTMAG1")
			c.put(w, state)
			return string(w.Finish())
		}
		state := c.fresh()
		base := encode(state)
		if encode(c.fresh()) != base {
			t.Errorf("%s: equal states encode differently", c.name)
		}
		flips := 0
		eachFlip(reflect.ValueOf(state).Elem(), c.name, func(path string) {
			flips++
			if encode(state) == base {
				t.Errorf("changing %s leaves the encoding unchanged", path)
			}
		})
		if encode(state) != base {
			t.Errorf("%s: eachFlip did not restore the state", c.name)
		}
		t.Logf("%s: %d single-field changes, each visible in the bytes", c.name, flips)
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
