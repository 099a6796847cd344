package nic

import (
	"encoding/binary"
	"fmt"
	"slices"

	"repro/internal/device"
)

// Shadow is the hypervisor-side virtual network adapter: the
// guest-visible register bank. TX stores are classified EffectOutput
// (the hypervisor gates them on I/O-activity and tags them with output
// ordinals); RX frames become visible to the guest only when a captured
// completion record is applied at an epoch boundary — so a request
// frame, like a disk completion or terminal input, arrives on every
// replica at the same instruction-stream position.
type Shadow struct {
	// The delivered frames awaiting guest reads: a ring of n frames from
	// ring[head], wrapping, the guest reading ring[head].words[pos].
	// Popping the head is one index step and pushing reallocates only
	// when the backlog outgrows the array — the guest drains a long
	// backlog (a rate ladder near its knee) without moving the frames
	// behind the head, and an idle adapter keeps its array. A slot keeps
	// its word buffer when its frame is drained, and the next frame
	// delivered into it is decoded there.
	ring         []frame
	head, n, pos int
	// rec is the buffer Capture and Recover build a record in.
	rec []byte
	// arena is where Release hands the shadow back.
	arena *Arena
}

// NewShadow returns an empty virtual adapter over a private arena.
func NewShadow() *Shadow { return NewShadowIn(new(Arena)) }

// NewShadowIn returns an empty virtual adapter: one released to a, with
// its frame ring, when a has one. It goes back to a at Release.
func NewShadowIn(a *Arena) *Shadow {
	s, ok := a.shadows.Get()
	if !ok {
		s = new(Shadow)
	}
	*s = Shadow{ring: s.ring, rec: s.rec[:0], arena: a}
	return s
}

// Release hands the shadow back to its arena, with its frame ring,
// dropping the frames still pending; a second call before the next
// NewShadowIn does nothing. Call only on teardown: the shadow must not be
// used afterwards.
func (s *Shadow) Release() {
	if a := s.arena; a != nil {
		*s = Shadow{ring: s.ring, rec: s.rec[:0]}
		a.shadows.Put(s)
	}
}

var _ device.Shadow = (*Shadow)(nil)

// Load implements device.Shadow. Reading RegRxData pops the delivered
// head frame word by word — a deterministic shadow-state mutation
// (every replica executes the same loads).
func (s *Shadow) Load(off uint32) uint32 {
	switch off {
	case RegStatus:
		v := StatusTxReady
		if s.n > 0 {
			v |= StatusRxAvail
		}
		return v
	case RegRxData:
		if s.n == 0 {
			return 0
		}
		f := &s.ring[s.head]
		v := f.words[s.pos]
		if s.pos++; s.pos == len(f.words) {
			s.pos = 0
			if s.head++; s.head == len(s.ring) {
				s.head = 0
			}
			s.n--
		}
		return v
	case RegRxLen:
		if s.n == 0 {
			return 0
		}
		return uint32(len(s.ring[s.head].words) - s.pos)
	case RegRxSeq:
		if s.n == 0 {
			return 0
		}
		return s.ring[s.head].seq
	}
	return 0
}

// tail returns the free slot behind the last pending frame, doubling the
// ring when it is full.
func (s *Shadow) tail() *frame {
	if s.n == len(s.ring) {
		grown := make([]frame, max(4, 2*len(s.ring)))
		k := copy(grown, s.ring[s.head:])
		copy(grown[k:], s.ring[:s.head])
		s.ring, s.head = grown, 0
	}
	return &s.ring[s.slot(s.n)]
}

// slot is the ring index of the i-th pending frame.
func (s *Shadow) slot(i int) int {
	if i += s.head; i >= len(s.ring) {
		i -= len(s.ring)
	}
	return i
}

// PureLoad implements device.Shadow (see popsOnRead).
func (s *Shadow) PureLoad(off uint32) bool { return !popsOnRead(off) }

// Store implements device.Shadow: TX stores are environment output.
func (s *Shadow) Store(off uint32, v uint32) device.Effect {
	if off == RegTxData || off == RegTxDoorbell {
		return device.EffectOutput
	}
	return device.EffectNone
}

// Output implements device.Shadow: forward one TX store to the real
// adapter, tagged with its ordinal so re-emission after a failover
// cannot duplicate words the environment already saw.
func (s *Shadow) Output(bus device.Bus, off, v uint32, ordinal uint32) {
	bus.Store(RegOutSeq, ordinal)
	bus.Store(off, v)
}

// Start implements device.Shadow (the NIC has no EffectStart doorbell;
// the TX doorbell is itself an output store).
func (s *Shadow) Start(bus device.Bus) {}

// Capture implements device.Shadow: drain the port's pending request
// frames into one completion record. Data packs whole frames as
// [seq, nwords, words...] little-endian; Seq is the highest frame
// sequence drained (the consume-on-apply watermark).
func (s *Shadow) Capture(bus device.Bus, mem device.Memory) (device.Completion, bool) {
	c := s.drain(bus, 0)
	return c, c.Data != nil
}

// drain pops the port's pending frames, packing those with a sequence
// above covered into a record. The record is built in s.rec and its Data
// copied out once, at its exact size: it travels in the epoch stream and
// outlives the next capture. A record with no frame has nil Data.
func (s *Shadow) drain(bus device.Bus, covered uint32) device.Completion {
	var c device.Completion
	b := s.rec[:0]
	for bus.Load(RegStatus)&StatusRxAvail != 0 {
		seq := bus.Load(RegRxSeq)
		n := bus.Load(RegRxLen)
		if n == 0 {
			break // defensive: a frame always holds >= 1 word
		}
		if seq <= covered {
			for j := uint32(0); j < n; j++ {
				bus.Load(RegRxData) // will be applied with its forwarded record
			}
			continue
		}
		b = device.AppendU32(b, seq)
		b = device.AppendU32(b, n)
		for j := uint32(0); j < n; j++ {
			b = device.AppendU32(b, bus.Load(RegRxData))
		}
		c.Seq = seq
	}
	s.rec = b
	if len(b) > 0 {
		c.Data = make([]byte, len(b))
		copy(c.Data, b)
		c.Status = StatusRxAvail
	}
	return c
}

// Apply implements device.Shadow: make the delivered frames visible to
// the guest and retire the real port's pending frames through the
// record's watermark (a no-op on the node that captured them).
func (s *Shadow) Apply(c device.Completion, mem device.Memory, bus device.Bus) {
	data := c.Data
	for len(data) > 0 {
		var ok bool
		if data, ok = readFrame(data, s.tail()); !ok {
			break
		}
		s.n++
	}
	bus.Store(RegRxConsume, c.Seq)
}

// readFrame decodes one [seq, nwords, words...] frame into f, reusing
// f's word buffer, and returns the bytes after it. The word count comes
// from outside (a forwarded record, a state-transfer blob): zero, or
// more than the remaining bytes hold, is malformed and refused before
// the buffer grows for it.
func readFrame(data []byte, f *frame) ([]byte, bool) {
	seq, rest, ok := device.ReadU32(data)
	if !ok {
		return nil, false
	}
	n, rest, ok := device.ReadU32(rest)
	if !ok || n == 0 || uint64(n) > uint64(len(rest)/4) {
		return nil, false
	}
	f.seq = seq
	f.words = slices.Grow(f.words[:0], int(n))[:n]
	for j := range f.words {
		f.words[j] = binary.LittleEndian.Uint32(rest[4*j:])
	}
	return rest[4*n:], true
}

// Recover implements device.Shadow: at failover, request frames the
// environment delivered but no replica consumed are still pending on
// this node's port — capture them now so the promoted virtual machine
// serves them. Frames covered by records already awaiting delivery (the
// dead coordinator captured and forwarded them for the failover epoch)
// are drained but NOT re-captured: they arrive with those records.
// (These are environment events, not uncertain completions: count 0.)
func (s *Shadow) Recover(bus device.Bus, mem device.Memory, outstanding bool, buffered []device.Completion) ([]device.Completion, int) {
	var covered uint32
	for _, b := range buffered {
		if b.Seq > covered {
			covered = b.Seq
		}
	}
	c := s.drain(bus, covered)
	if c.Data == nil {
		return nil, 0
	}
	return []device.Completion{c}, 0
}

// MarshalState implements device.Shadow.
func (s *Shadow) MarshalState() []byte {
	b := device.AppendU32(nil, uint32(s.n))
	for i := 0; i < s.n; i++ {
		f := &s.ring[s.slot(i)]
		words := f.words
		if i == 0 {
			words = words[s.pos:]
		}
		b = device.AppendU32(b, f.seq)
		b = device.AppendU32(b, uint32(len(words)))
		for _, w := range words {
			b = device.AppendU32(b, w)
		}
	}
	return b
}

// UnmarshalState implements device.Shadow.
func (s *Shadow) UnmarshalState(data []byte) error {
	n, rest, ok := device.ReadU32(data)
	// A frame is at least its seq and word count: a frame count the
	// remaining bytes cannot hold is refused before it sizes anything.
	if !ok || uint64(n) > uint64(len(rest)/8) {
		return fmt.Errorf("nic: shadow state malformed (%d bytes)", len(data))
	}
	rx := make([]frame, n)
	for j := range rx {
		if rest, ok = readFrame(rest, &rx[j]); !ok {
			return fmt.Errorf("nic: shadow state truncated (frame %d of %d)", j, n)
		}
	}
	if len(rest) != 0 {
		return fmt.Errorf("nic: shadow state has %d trailing bytes", len(rest))
	}
	s.ring, s.head, s.n, s.pos = rx, 0, len(rx), 0 // filled to its capacity
	return nil
}
