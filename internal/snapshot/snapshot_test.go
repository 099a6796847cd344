package snapshot

import (
	"bytes"
	"encoding/binary"
	"errors"
	"hash/fnv"
	"math/rand"
	"reflect"
	"testing"
)

const testMagic = "TESTMAG1"

// TestCodecRoundTrip pins primitive encode/decode symmetry.
func TestCodecRoundTrip(t *testing.T) {
	w := NewWriter(testMagic)
	w.U8(7)
	w.Bool(true)
	w.U32(0xDEADBEEF)
	w.U64(1<<63 | 12345)
	w.I64(-42)
	w.Int(-7)
	w.Bytes([]byte{1, 2, 3})
	w.String("hello")
	blob := w.Finish()

	r, err := NewReader(blob, testMagic)
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
	if b := r.View(); string(b) != "\x01\x02\x03" {
		t.Fatalf("View = %v", b)
	}
	if s := r.String(); s != "hello" {
		t.Fatalf("String = %q", s)
	}
	if r.Remaining() != 0 || r.Err() != nil {
		t.Fatalf("remaining %d, err %v", r.Remaining(), r.Err())
	}
}

// codecCase is one Codec primitive's round trip: v written through code,
// then read back through the same code into a zero value.
type codecCase struct {
	name string
	run  func(t *testing.T)
}

func codecPrimitive[T any](name string, v T, code func(*Codec, *T)) codecCase {
	return codecCase{name, func(t *testing.T) {
		w := NewWriter(testMagic)
		in := v
		code(w.Codec(), &in)
		r, err := NewReader(w.Finish(), testMagic)
		if err != nil {
			t.Fatal(err)
		}
		var out T
		code(r.Codec(), &out)
		if err := r.Done(); err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(out, v) || !reflect.DeepEqual(in, v) {
			t.Errorf("wrote %v, read back %v (written value now %v)", v, out, in)
		}
	}}
}

// TestCodecPrimitives: every Codec primitive writes a value and reads the
// same value back, through one code function used in both modes.
func TestCodecPrimitives(t *testing.T) {
	for _, c := range []codecCase{
		codecPrimitive("U8", uint8(0xA5), (*Codec).U8),
		codecPrimitive("Bool", true, (*Codec).Bool),
		codecPrimitive("U32", uint32(0xDEADBEEF), (*Codec).U32),
		codecPrimitive("Uint", uint(0xFEEDF00D), (*Codec).Uint),
		codecPrimitive("U64", uint64(1<<63|12345), (*Codec).U64),
		codecPrimitive("I64", int64(-42), (*Codec).I64),
		codecPrimitive("Int", -7, (*Codec).Int),
		codecPrimitive("String", "hello", (*Codec).String),
		codecPrimitive("Bytes", []byte{1, 2, 3}, (*Codec).Bytes),
		codecPrimitive("Bytes/nil", []byte(nil), (*Codec).Bytes),
		codecPrimitive("View", []byte{4, 5}, (*Codec).View),
		codecPrimitive("Count+Slice", []uint32{9, 8, 7}, func(c *Codec, s *[]uint32) {
			Slice(c, s, 4)
			for i := range *s {
				c.U32(&(*s)[i])
			}
		}),
		codecPrimitive("Slice/empty", []uint32(nil), func(c *Codec, s *[]uint32) { Slice(c, s, 4) }),
	} {
		t.Run(c.name, c.run)
	}

	// An empty slice reads back as nil, and Bytes copies where View aliases.
	w := NewWriter(testMagic)
	empty, data := []byte{}, []byte{6, 7}
	w.Codec().Bytes(&empty)
	w.Codec().Bytes(&data)
	w.Codec().View(&data)
	blob := w.Finish()
	r, _ := NewReader(blob, testMagic)
	var gotEmpty, copied, viewed []byte
	r.Codec().Bytes(&gotEmpty)
	r.Codec().Bytes(&copied)
	r.Codec().View(&viewed)
	if gotEmpty != nil || r.Done() != nil {
		t.Errorf("empty Bytes read back as %#v (%v)", gotEmpty, r.Done())
	}
	blob[len(blob)-8-1] = 0xFF // the viewed slice's last byte, under the checksum
	if copied[1] != 7 || viewed[1] != 0xFF {
		t.Errorf("Bytes %v must be a copy and View %v an alias of the blob", copied, viewed)
	}
}

// TestCodecCountAndLatch: read, Count refuses a count the remaining
// bytes cannot hold, and the first failure latches: every later read
// yields zeros and the error stays the first one.
func TestCodecCountAndLatch(t *testing.T) {
	w := NewWriter(testMagic)
	w.U32(1) // one 8-byte element, which follows
	w.U64(5)
	w.U32(3) // three 8-byte elements: 24 bytes, of which 12 follow
	w.U32(7)
	w.U64(9)
	r, _ := NewReader(w.Finish(), testMagic)
	c := r.Codec()
	n := -1
	if c.Count(&n, 8); n != 1 || r.Err() != nil {
		t.Fatalf("a count the bytes hold: %d, %v", n, r.Err())
	}
	var v uint64
	c.U64(&v)
	if c.Count(&n, 8); n != 0 || !errors.Is(r.Err(), ErrCorrupt) {
		t.Fatalf("a count the bytes cannot hold: %d, %v", n, r.Err())
	}
	first := r.Err()
	u32, u64, s, b, ok := uint32(1), uint64(1), "x", []byte{1}, true
	c.U32(&u32)
	c.U64(&u64)
	c.String(&s)
	c.Bytes(&b)
	c.Bool(&ok)
	if u32 != 0 || u64 != 0 || s != "" || b != nil || ok {
		t.Errorf("reads after a failure yielded %d %d %q %v %v, want zeros", u32, u64, s, b, ok)
	}
	if r.Err() != first || r.Done() != first {
		t.Errorf("error moved from %v to %v", first, r.Err())
	}
}

// TestReaderRejects pins the structural gates.
func TestReaderRejects(t *testing.T) {
	blob := NewWriter(testMagic).Finish()
	if _, err := NewReader(blob, "OTHERMAG"); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("wrong magic: %v", err)
	}
	if _, err := NewReader(blob[:5], testMagic); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("truncated: %v", err)
	}
	bad := append([]byte(nil), blob...)
	bad[len(bad)-1]++
	if _, err := NewReader(bad, testMagic); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("bad checksum: %v", err)
	}
	ver := append([]byte(nil), blob[:len(blob)-8]...)
	ver[8]++ // version word
	// Resealed, the checksum gate would pass; the version gate comes first.
	ver = binary.LittleEndian.AppendUint64(ver, checksum(ver))
	if _, err := NewReader(ver, testMagic); !errors.Is(err, ErrVersion) {
		t.Fatalf("future version: %v", err)
	}
}

// TestReaderPreviousFormat: a blob of the previous formats — checkpoint
// format 7, transfer format 5, sealed with byte-serial FNV-64a — is
// ErrVersion, not ErrCorrupt: the version word is checked before a
// checksum it was never sealed with.
func TestReaderPreviousFormat(t *testing.T) {
	for magic, version := range map[string]uint32{testMagic: 7, TransferMagic: 5} {
		blob := []byte(magic)
		blob = binary.LittleEndian.AppendUint32(blob, version)
		blob = append(blob, "a section body"...)
		h := fnv.New64a()
		h.Write(blob)
		blob = binary.LittleEndian.AppendUint64(blob, h.Sum64())
		if _, err := NewReader(blob, magic); !errors.Is(err, ErrVersion) {
			t.Errorf("%s format %d: got %v, want ErrVersion", magic, version, err)
		}
	}
}

// TestChecksumAnyByte: the word hash sees every byte of a blob, tail
// included — changing any one byte of a body, to any other value,
// changes its checksum — and a body's length, so zero-extending it does
// too.
func TestChecksumAnyByte(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for n := 0; n <= 40; n++ {
		body := make([]byte, n)
		rng.Read(body)
		sum := checksum(body)
		for i := range body {
			for x := 1; x < 256; x++ {
				body[i] ^= byte(x)
				if checksum(body) == sum {
					t.Fatalf("%d-byte body: byte %d ^ %#x kept the checksum", n, i, x)
				}
				body[i] ^= byte(x)
			}
		}
		if checksum(append(body, 0)) == sum {
			t.Fatalf("%d-byte body: a trailing zero kept the checksum", n)
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
// blob-in-a-blob it replaces, and a reset writer starts clean.
func TestSectionInPlace(t *testing.T) {
	inner := NewWriter("INNERMAG")
	inner.String("payload")
	inner.U64(42)
	old := NewWriter(testMagic)
	old.String("name")
	old.Bytes(inner.Finish())
	want := old.Finish()

	w := NewWriter(testMagic)
	for round := 0; round < 2; round++ { // second round reuses the buffer
		if round > 0 {
			w.Reset(testMagic)
		}
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
	}
}
