// Package snapshot is the leaf codec under the session checkpoint and
// backup-reintegration subsystems: a deterministic, versioned binary
// Writer/Reader pair, and the Codec that drives either one from a single
// description of a format. It imports no other package of this module,
// so every layer can use it, and it knows no layer's layout: a layer's
// byte format lives in that layer's snapshot.go (machine, hypervisor,
// replication) and the two composite blobs — the checkpoint's section
// list and the AddBackup transfer — in session.
//
// Determinism is a hard requirement, not a nicety: a state-transfer
// blob's byte length is charged to the simulated link (so its size must
// be a pure function of the state), and snapshot verification compares
// independently produced encodings byte for byte. Every encoder built on
// this package therefore emits fields in a fixed order, sorts anything
// map-shaped, and uses the fixed-width little-endian integers below.
//
// Format discipline: every top-level blob opens with an 8-byte magic
// and a format version word, and closes with a checksum of everything
// before it (the word hash below, over the blob's bytes). Readers reject
// unknown magics, foreign versions (ErrVersion) and checksum mismatches
// up front, in that order — a snapshot from a different build of this
// code fails loudly, never by silently reconstructing a diverged
// simulation, and one from a different format says so rather than
// failing a checksum it was never sealed with.
package snapshot

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"slices"
)

// FormatVersion is the current snapshot format; readers reject every
// other version. A layer's snapshot.go that moves a byte bumps
// FormatVersion or transferVersion — the two byte goldens
// (TestSaveBytesGolden, TestTransferBytesGolden) will tell you.
//
// Version 8 = the checksum trailer, and every state digest a section
// holds, is the word hash (Mix) instead of byte-serial FNV-64a; no field
// changed width. Version 7 = TLB recency as order: each LRU stamp is
// written as the slot's rank and the clock as the highest rank, in the
// same widths.
const FormatVersion = 8

// transferVersion is the live state-transfer blob's own format number.
// The blob holds machine and hypervisor state only, and its bytes are
// what the simulated link is charged for and what TestTransferBytesGolden
// pins — so a change to a checkpoint-only section moves FormatVersion and
// leaves this alone. Version 6 = the word-hash checksum (FormatVersion
// 8); version 5 = TLB recency as order (FormatVersion 7). Neither
// changed a field's width, so no blob changed length.
const transferVersion = 6

// HashBasis is the word hash's initial state: the FNV-64 offset basis.
const HashBasis = 14695981039346656037

// hashPrime is the FNV-64 prime, the word hash's multiplier.
const hashPrime = 1099511628211

// Mix folds one 64-bit word w into the running word hash h:
//
//	h = (h ^ w) * 1099511628211
//	h ^= h >> 32
//
// The one hash behind the checksum trailer and the state digests
// (machine.Machine.Digest and DigestMemory, hypervisor.Hypervisor.Digest).
// For a fixed w both steps are bijections of h (an odd multiplier, a
// right xorshift by half the width), and for a fixed h the first is a
// bijection of w, so two word sequences of one length that differ in
// exactly one word always hash differently — FNV-1a's guarantee for a
// byte, at one step per eight bytes.
func Mix(h, w uint64) uint64 {
	h = (h ^ w) * hashPrime
	return h ^ h>>32
}

// MixBytes folds b into h a little-endian word at a time, the last word
// zero-padded, and then len(b), so a blob and its zero-extension differ.
func MixBytes(h uint64, b []byte) uint64 {
	n := len(b)
	for ; len(b) >= 8; b = b[8:] {
		h = Mix(h, binary.LittleEndian.Uint64(b))
	}
	if len(b) > 0 {
		var tail [8]byte
		copy(tail[:], b)
		h = Mix(h, binary.LittleEndian.Uint64(tail[:]))
	}
	return Mix(h, uint64(n))
}

// TransferMagic opens a live state-transfer blob (AddBackup's payload
// on the simulated link).
const TransferMagic = "HFTXFER1"

// versionOf returns the format number blobs opened by magic carry.
func versionOf(magic string) uint32 {
	if magic == TransferMagic {
		return transferVersion
	}
	return FormatVersion
}

// ErrVersion reports a snapshot written by a different format version.
// Errors wrapping it are returned by NewReader; test with errors.Is.
var ErrVersion = errors.New("snapshot: format version mismatch")

// ErrCorrupt reports a snapshot that fails structural validation
// (magic, checksum, truncation, or malformed section framing).
var ErrCorrupt = errors.New("snapshot: corrupt or truncated data")

// Writer accumulates a deterministic binary encoding.
type Writer struct {
	buf []byte
	c   Codec // Codec's, pointing back at the writer
}

// NewWriter starts a blob with the given 8-byte magic and the current
// format version.
func NewWriter(magic string) *Writer {
	w := &Writer{}
	w.header(magic)
	return w
}

// Reset starts a new blob as NewWriter does, over the buffer the writer
// already has: a steady stream of blobs encodes into a warm, already
// grown buffer. Every slice of the buffer handed out before is dead.
func (w *Writer) Reset(magic string) {
	w.buf = w.buf[:0]
	w.header(magic)
}

// header appends a blob header: magic and format version.
func (w *Writer) header(magic string) {
	if len(magic) != 8 {
		panic(fmt.Sprintf("snapshot: magic %q must be 8 bytes", magic))
	}
	w.buf = append(w.buf, magic...)
	w.U32(versionOf(magic))
}

// Truncate drops everything written after the first n bytes (a Len).
// Truncate(0) leaves no header: the writer then holds an unframed body,
// bytes a layer nests inside its own format.
func (w *Writer) Truncate(n int) { w.buf = w.buf[:n] }

// Since returns the bytes written after mark (a Len). The result aliases
// the writer's buffer: valid until the next Truncate or Reset.
func (w *Writer) Since(mark int) []byte { return w.buf[mark:len(w.buf):len(w.buf)] }

// Grow ensures room for n more bytes without reallocation.
func (w *Writer) Grow(n int) { w.buf = slices.Grow(w.buf, n) }

// checksum is the blob trailer: the word hash of everything before it.
func checksum(b []byte) uint64 { return MixBytes(HashBasis, b) }

// BeginSection opens a nested blob encoded in place: it is
// byte-for-byte what Bytes(blob) would append for a blob built by its
// own NewWriter(magic) … Finish(), without the intermediate copies.
// Pass the returned mark to EndSection once the body is written.
func (w *Writer) BeginSection(magic string) (mark int) {
	mark = len(w.buf)
	w.U32(0) // length slot, patched by EndSection
	w.header(magic)
	return mark
}

// EndSection closes the nested blob opened at mark: appends its
// checksum trailer, patches its length prefix and returns the blob.
// The result aliases the writer's buffer: valid until the next write.
func (w *Writer) EndSection(mark int) []byte {
	w.U64(checksum(w.buf[mark+4:]))
	blob := w.buf[mark+4:]
	binary.LittleEndian.PutUint32(w.buf[mark:], uint32(len(blob)))
	return blob
}

// U8 appends one byte.
func (w *Writer) U8(v uint8) { w.buf = append(w.buf, v) }

// Bool appends a boolean as one byte.
func (w *Writer) Bool(v bool) {
	if v {
		w.U8(1)
	} else {
		w.U8(0)
	}
}

// U32 appends a little-endian uint32.
func (w *Writer) U32(v uint32) {
	w.buf = append(w.buf, byte(v), byte(v>>8), byte(v>>16), byte(v>>24))
}

// U64 appends a little-endian uint64.
func (w *Writer) U64(v uint64) {
	w.U32(uint32(v))
	w.U32(uint32(v >> 32))
}

// I64 appends a little-endian int64.
func (w *Writer) I64(v int64) { w.U64(uint64(v)) }

// Int appends an int as a 64-bit value.
func (w *Writer) Int(v int) { w.I64(int64(v)) }

// Bytes appends a length-prefixed byte slice.
func (w *Writer) Bytes(b []byte) {
	w.U32(uint32(len(b)))
	w.buf = append(w.buf, b...)
}

// String appends a length-prefixed string.
func (w *Writer) String(s string) {
	w.U32(uint32(len(s)))
	w.buf = append(w.buf, s...)
}

// Len reports the number of bytes written so far (checksum excluded).
func (w *Writer) Len() int { return len(w.buf) }

// Finish appends the checksum trailer and returns the complete blob.
// The Writer must not be used afterwards.
func (w *Writer) Finish() []byte {
	w.U64(checksum(w.buf))
	return w.buf
}

// Reader decodes a blob produced by Writer. Errors are sticky: after
// the first failure every accessor returns zero values and Err reports
// the failure.
type Reader struct {
	b   []byte
	off int
	err error
	own []byte // ReadBlob's buffer, which b views, kept for the next blob
	c   Codec  // Codec's, pointing back at the reader
}

// NewReader validates the blob's magic, version and checksum, in that
// order, and positions a reader after the header. The version comes
// before the checksum because the checksum is the format's own: a blob
// of another format was sealed with another, and is ErrVersion, not
// ErrCorrupt.
func NewReader(blob []byte, magic string) (*Reader, error) {
	r := &Reader{}
	if err := r.open(blob, magic); err != nil {
		return nil, err
	}
	return r, nil
}

// open is NewReader on r.
func (r *Reader) open(blob []byte, magic string) error {
	if len(magic) != 8 {
		panic(fmt.Sprintf("snapshot: magic %q must be 8 bytes", magic))
	}
	if len(blob) < 8+4+8 {
		return fmt.Errorf("%w: %d bytes", ErrCorrupt, len(blob))
	}
	if string(blob[:8]) != magic {
		return fmt.Errorf("%w: bad magic %q (want %q)", ErrCorrupt, blob[:8], magic)
	}
	if v, want := binary.LittleEndian.Uint32(blob[8:]), versionOf(magic); v != want {
		return fmt.Errorf("%w: snapshot is format %d, this build reads %d", ErrVersion, v, want)
	}
	body := blob[:len(blob)-8]
	if got, want := binary.LittleEndian.Uint64(blob[len(body):]), checksum(body); got != want {
		return fmt.Errorf("%w: checksum %#x, computed %#x", ErrCorrupt, got, want)
	}
	r.b, r.off, r.err = body, 8+4, nil
	return nil
}

// ReadBlob reads src to EOF into r's buffer — the one r's previous blob
// was read into, grown as needed; the zero Reader has none yet — and
// opens it as NewReader does. The buffer is sized up front when src can
// say how much is left (bytes.Reader, bytes.Buffer, strings.Reader; only
// a hint, the read still runs to EOF). The blob, and every View handed
// out of it, is dead at r's next ReadBlob.
func (r *Reader) ReadBlob(src io.Reader, magic string) error {
	buf := r.own[:0]
	*r = Reader{}
	if lr, ok := src.(interface{ Len() int }); ok {
		buf = slices.Grow(buf, lr.Len()+bytes.MinRead)
	}
	for {
		if len(buf) == cap(buf) {
			buf = slices.Grow(buf, bytes.MinRead)
		}
		n, err := src.Read(buf[len(buf):cap(buf)])
		buf = buf[:len(buf)+n]
		if err == io.EOF {
			break
		}
		if err != nil {
			r.own = buf
			return err
		}
	}
	r.own = buf
	return r.open(buf, magic)
}

// Nested positions r at the start of b, an unframed body nested inside
// another blob's format: no magic, version or checksum of its own.
func (r *Reader) Nested(b []byte) { r.b, r.off, r.err = b, 0, nil }

// Fail latches the first error: the bytes at the current offset cannot
// be what the decoder expects. A code method calls it (Codec.Fail) for
// a value that read cleanly but is structurally invalid.
func (r *Reader) Fail() {
	if r.err == nil {
		r.err = fmt.Errorf("%w: truncated at offset %d", ErrCorrupt, r.off)
	}
}

// Err returns the sticky decode error, if any.
func (r *Reader) Err() error { return r.err }

// Remaining reports how many body bytes are left.
func (r *Reader) Remaining() int { return len(r.b) - r.off }

// Done ends a decode that should have consumed the whole body: the
// sticky error, else ErrCorrupt if bytes are left over.
func (r *Reader) Done() error {
	if r.err == nil && r.Remaining() != 0 {
		return fmt.Errorf("%w: %d trailing bytes", ErrCorrupt, r.Remaining())
	}
	return r.err
}

// U8 reads one byte.
func (r *Reader) U8() uint8 {
	if r.err != nil || r.off+1 > len(r.b) {
		r.Fail()
		return 0
	}
	v := r.b[r.off]
	r.off++
	return v
}

// Bool reads a boolean. Only the two bytes Writer.Bool emits decode:
// every accepted blob has exactly one encoding.
func (r *Reader) Bool() bool {
	v := r.U8()
	if v > 1 {
		r.Fail()
	}
	return v == 1
}

// U32 reads a little-endian uint32.
func (r *Reader) U32() uint32 {
	if r.err != nil || r.off+4 > len(r.b) {
		r.Fail()
		return 0
	}
	b := r.b[r.off:]
	r.off += 4
	return uint32(b[0]) | uint32(b[1])<<8 | uint32(b[2])<<16 | uint32(b[3])<<24
}

// U64 reads a little-endian uint64.
func (r *Reader) U64() uint64 {
	lo := r.U32()
	hi := r.U32()
	return uint64(lo) | uint64(hi)<<32
}

// I64 reads a little-endian int64.
func (r *Reader) I64() int64 { return int64(r.U64()) }

// Int reads an int encoded by Writer.Int.
func (r *Reader) Int() int { return int(r.I64()) }

// View reads a length-prefixed byte slice without copying: the result
// aliases the blob the reader was opened on.
func (r *Reader) View() []byte {
	n := int(r.U32())
	if r.err != nil || n < 0 || r.off+n > len(r.b) {
		r.Fail()
		return nil
	}
	v := r.b[r.off : r.off+n : r.off+n]
	r.off += n
	return v
}

// Count reads an element count and fails unless that many elements of
// at least elemMin encoded bytes each can still follow — so a decoder
// can size an allocation from the count without trusting it.
func (r *Reader) Count(elemMin int) int {
	n := int(r.U32())
	if r.err != nil || n < 0 || n > r.Remaining()/elemMin {
		r.Fail()
		return 0
	}
	return n
}

// String reads a length-prefixed string.
func (r *Reader) String() string { return string(r.View()) }

// Codec is one byte format in both directions. A layer writes its format
// once, as a code method that hands every field to the codec in order —
// c.U32(&s.PC), c.Count(&n, elemMin), c.Bytes(&d.Data) — and the same
// method encodes (each field is appended to the codec's Writer) or
// decodes (each field is overwritten with the next value its Reader
// yields), so no encoder and decoder can drift apart. It is a concrete
// type with a mode, not an interface: a checkpoint pays a branch per
// field, not a dynamic call. Writer.Codec and Reader.Codec hand one out.
//
// Decoding goes into a staging value that its owner vets before it
// commits (or, for a device shadow, into live state the hypervisor puts
// back on a refusal), and a code method checks what it reads where it
// reads it (Reading, Fail). Every failure latches on the Reader, whose
// accessors then yield zeros, so a code method runs to its end on any
// input and its caller asks Reader.Err or Reader.Done once.
type Codec struct {
	w *Writer // write mode
	r *Reader // read mode
}

// Codec returns the codec that writes to w. It lives in w: taking it
// allocates nothing, whatever the code methods it is passed to.
func (w *Writer) Codec() *Codec {
	w.c = Codec{w: w}
	return &w.c
}

// Codec returns the codec that reads from r, living in r as Writer.Codec
// lives in its writer.
func (r *Reader) Codec() *Codec {
	r.c = Codec{r: r}
	return &r.c
}

// Reading reports whether c decodes.
func (c *Codec) Reading() bool { return c.r != nil }

// Fail latches a decode failure (Reader.Fail): the value just read is
// structurally invalid. Call it only while Reading.
func (c *Codec) Fail() { c.r.Fail() }

// U8 codes one byte.
func (c *Codec) U8(p *uint8) {
	if c.r != nil {
		*p = c.r.U8()
	} else {
		c.w.U8(*p)
	}
}

// Bool codes a boolean as one byte, 0 or 1 (Reader.Bool).
func (c *Codec) Bool(p *bool) {
	if c.r != nil {
		*p = c.r.Bool()
	} else {
		c.w.Bool(*p)
	}
}

// U32 codes a little-endian uint32.
func (c *Codec) U32(p *uint32) {
	if c.r != nil {
		*p = c.r.U32()
	} else {
		c.w.U32(*p)
	}
}

// Uint codes a uint as a uint32 (an interrupt line, a device's line).
func (c *Codec) Uint(p *uint) {
	v := uint32(*p)
	c.U32(&v)
	if c.r != nil {
		*p = uint(v)
	}
}

// U64 codes a little-endian uint64.
func (c *Codec) U64(p *uint64) {
	if c.r != nil {
		*p = c.r.U64()
	} else {
		c.w.U64(*p)
	}
}

// I64 codes a little-endian int64.
func (c *Codec) I64(p *int64) {
	if c.r != nil {
		*p = c.r.I64()
	} else {
		c.w.I64(*p)
	}
}

// Int codes an int as a 64-bit value.
func (c *Codec) Int(p *int) {
	if c.r != nil {
		*p = c.r.Int()
	} else {
		c.w.Int(*p)
	}
}

// String codes a length-prefixed string.
func (c *Codec) String(p *string) {
	if c.r != nil {
		*p = c.r.String()
	} else {
		c.w.String(*p)
	}
}

// Bytes codes a length-prefixed byte slice. Read, it is a copy, and an
// empty one is nil.
func (c *Codec) Bytes(p *[]byte) {
	if c.r == nil {
		c.w.Bytes(*p)
	} else if v := c.r.View(); len(v) > 0 {
		*p = bytes.Clone(v)
	} else {
		*p = nil
	}
}

// View is Bytes without the copy: read, the slice aliases the blob the
// reader was opened on (Reader.View).
func (c *Codec) View(p *[]byte) {
	if c.r != nil {
		*p = c.r.View()
	} else {
		c.w.Bytes(*p)
	}
}

// Count codes an element count. Read, it fails unless that many elements
// of at least elemMin encoded bytes each can still follow (Reader.Count),
// so *n can size an allocation without being trusted.
func (c *Codec) Count(n *int, elemMin int) {
	if c.r != nil {
		*n = c.r.Count(elemMin)
	} else {
		c.w.U32(uint32(*n))
	}
}

// Slice codes a slice's length as Count does. Read, *s becomes a fresh
// slice of that many zero elements (nil for none) for the caller to code
// element by element.
func Slice[T any](c *Codec, s *[]T, elemMin int) {
	n := len(*s)
	c.Count(&n, elemMin)
	if c.r != nil {
		*s = nil
		if n > 0 {
			*s = make([]T, n)
		}
	}
}
