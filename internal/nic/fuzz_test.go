package nic

import (
	"encoding/binary"
	"slices"
	"testing"
	"unsafe"

	"repro/internal/device"
)

// recordOf packs frames as Capture does: [seq, nwords, words...].
func recordOf(frames []frame) []byte {
	var b []byte
	for _, f := range frames {
		b = binary.LittleEndian.AppendUint32(b, f.seq)
		b = binary.LittleEndian.AppendUint32(b, uint32(len(f.words)))
		for _, w := range f.words {
			b = binary.LittleEndian.AppendUint32(b, w)
		}
	}
	return b
}

// pending pops every frame the shadow holds through the guest's
// registers.
func pending(t *testing.T, s *Shadow) []frame {
	var out []frame
	for s.Load(RegStatus)&StatusRxAvail != 0 {
		f := frame{seq: s.Load(RegRxSeq)}
		n := s.Load(RegRxLen)
		if n == 0 {
			t.Fatalf("frame %d holds no word: the guest cannot pop it", f.seq)
		}
		for ; n > 0; n-- {
			f.words = append(f.words, s.Load(RegRxData))
		}
		out = append(out, f)
	}
	return out
}

// requestsOf cuts fuzz bytes into request frames for IDs 1, 2, ...: each
// byte is one payload word, and a zero byte ends a frame.
func requestsOf(data []byte) [][]uint32 {
	var reqs [][]uint32
	words := []uint32{1}
	for _, b := range data {
		if b == 0 {
			reqs = append(reqs, words)
			words = []uint32{uint32(len(reqs) + 1)}
			continue
		}
		words = append(words, uint32(b)*0x01010101)
	}
	return append(reqs, words)
}

// FuzzNICRecord feeds arbitrary completion records — the bytes a
// forwarded epoch frame or a state transfer carries into the NIC's
// shadow — to Apply and, as the record a failover finds buffered, to
// Recover. Neither may panic; Apply may allocate only in proportion to
// the record's bytes, whatever word and frame counts it claims; what
// Apply delivered survives a CodeState write and read. The same bytes,
// cut into request frames, must come back out of a Capture → Apply
// round trip unchanged, frame for frame.
func FuzzNICRecord(f *testing.F) {
	f.Add(recordOf([]frame{{seq: 1, words: []uint32{7, 1, 2}}, {seq: 2, words: []uint32{8}}}), uint32(2))
	f.Add([]byte{}, uint32(0))
	f.Add([]byte{1, 0, 0, 0, 0xff, 0xff, 0xff, 0x7f}, uint32(1))              // word count past the bytes
	f.Add([]byte{1, 0, 0, 0, 0, 0, 0, 0, 5, 0, 0, 0}, uint32(1))              // a zero-word frame
	f.Add(recordOf([]frame{{seq: 3, words: []uint32{9, 9}}})[:11], uint32(3)) // truncated
	f.Fuzz(func(t *testing.T, data []byte, seq uint32) {
		n := New(64)
		p := n.NewPort(nil)
		c := device.Completion{Status: StatusRxAvail, Data: data, Seq: seq}

		sh := NewShadow()
		sh.Apply(c, memStub{}, portBus{p})
		// What Apply allocated, it keeps: the ring, which doubles from
		// four slots, and each frame's words, which fit the bytes that
		// carried them. A frame takes at least 12 record bytes, so a few
		// bytes per record byte at most, never what a hostile count asks
		// for.
		footprint := len(sh.ring) * int(unsafe.Sizeof(frame{}))
		for _, f := range sh.ring {
			footprint += 4 * cap(f.words)
		}
		if limit := 16*len(data) + 256; footprint > limit {
			t.Fatalf("Apply of %d bytes holds %d bytes (limit %d)", len(data), footprint, limit)
		}
		var back Shadow
		if err := unmarshal(&back, marshal(sh)); err != nil {
			t.Fatalf("state of an applied record does not decode: %v", err)
		}
		got := pending(t, sh)
		if restored := pending(t, &back); !slices.EqualFunc(got, restored, sameFrame) {
			t.Fatalf("restored shadow holds %v, the original %v", restored, got)
		}
		if len(got) > len(data)/12 {
			t.Fatalf("%d bytes delivered %d frames", len(data), len(got))
		}

		// Recover on a port with frames pending, the fuzzed record
		// already awaiting delivery.
		reqs := requestsOf(data)
		for _, r := range reqs[:min(len(reqs), 64)] {
			n.Ingress(r)
		}
		recs, unc := NewShadow().Recover(portBus{p}, memStub{}, false, []device.Completion{c})
		if unc != 0 || len(recs) > 1 || p.Pending() != 0 {
			t.Fatalf("Recover: %d records, %d uncertain, %d frames left on the port", len(recs), unc, p.Pending())
		}
		for _, r := range recs {
			for _, f := range readAll(t, r.Data) {
				if f.seq <= seq {
					t.Fatalf("Recover re-captured frame %d, covered by the buffered record (%d)", f.seq, seq)
				}
			}
		}

		// Capture → Apply is the identity.
		n2 := New(len(reqs))
		pa, pb := n2.NewPort(nil), n2.NewPort(nil)
		var want []frame
		for _, r := range reqs {
			if _, ok := n2.Ingress(r); ok {
				want = append(want, frame{seq: uint32(len(want) + 1), words: r})
			}
		}
		rec, ok := NewShadow().Capture(portBus{pa}, memStub{})
		if ok != (len(want) > 0) {
			t.Fatalf("Capture found a record: %v, with %d frames pending", ok, len(want))
		}
		dst := NewShadow()
		dst.Apply(rec, memStub{}, portBus{pb})
		if got := pending(t, dst); !slices.EqualFunc(got, want, sameFrame) {
			t.Fatalf("Capture → Apply delivered %v, want %v", got, want)
		}
		if pb.Pending() != 0 {
			t.Fatalf("the applying node's port kept %d frames", pb.Pending())
		}
	})
}

func sameFrame(a, b frame) bool { return a.seq == b.seq && slices.Equal(a.words, b.words) }

// readAll decodes a whole record, failing on malformed bytes.
func readAll(t *testing.T, data []byte) []frame {
	var out []frame
	for len(data) > 0 {
		var f frame
		var ok bool
		if data, ok = readFrame(data, &f); !ok {
			t.Fatalf("malformed record %x", data)
		}
		out = append(out, f)
	}
	return out
}
