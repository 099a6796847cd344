package nic

import (
	"encoding/binary"
	"hash/fnv"
	"slices"
	"testing"

	"repro/internal/device"
	"repro/internal/snapshot"
)

// memStub satisfies device.Memory (the NIC never touches guest memory).
type memStub struct{}

func (memStub) ReadBytes(pa uint32, n int) []byte { return make([]byte, n) }
func (memStub) WriteBytes(pa uint32, data []byte) {}

// portBus adapts a Port to device.Bus for shadow tests.
type portBus struct{ p *Port }

func (b portBus) Load(off uint32) uint32 {
	v, err := b.p.MMIOLoad(off, 4)
	if err != nil {
		panic(err)
	}
	return v
}
func (b portBus) Store(off uint32, v uint32) {
	if err := b.p.MMIOStore(off, 4, v); err != nil {
		panic(err)
	}
}

func TestIngressDedupAndReplyLog(t *testing.T) {
	n := New(16)
	p := n.NewPort(nil)

	if _, accepted := n.Ingress([]uint32{1, 10, 20}); !accepted {
		t.Fatal("first delivery of request 1 not accepted")
	}
	if reply, accepted := n.Ingress([]uint32{1, 10, 20}); accepted || reply != nil {
		t.Fatalf("queued duplicate: accepted=%v reply=%v", accepted, reply)
	}
	if p.Pending() != 1 {
		t.Fatalf("port pending = %d, want 1", p.Pending())
	}

	// Guest answers request 1 through the port (bare-machine path).
	bus := portBus{p}
	bus.Store(RegTxData, 1)
	bus.Store(RegTxData, 0xABCD)
	bus.Store(RegTxDoorbell, 2)
	if n.Stats.TxFrames != 1 {
		t.Fatalf("TxFrames = %d, want 1", n.Stats.TxFrames)
	}

	reply, accepted := n.Ingress([]uint32{1, 10, 20})
	if accepted || len(reply) != 2 || reply[0] != 1 || reply[1] != 0xABCD {
		t.Fatalf("answered duplicate: accepted=%v reply=%v", accepted, reply)
	}
	if n.Stats.Retransmits != 2 || n.Stats.Replayed != 1 {
		t.Fatalf("stats = %+v", n.Stats)
	}
}

func TestOutputOrdinalDedup(t *testing.T) {
	n := New(16)
	p := n.NewPort(nil)
	bus := portBus{p}
	sh := NewShadow()

	// Acting writer emits words 1..3 of a frame with ordinals 1..3.
	sh.Output(bus, RegTxData, 100, 1)
	sh.Output(bus, RegTxData, 200, 2)
	// A promoted successor replays ordinals 1..2 (already seen), then
	// continues with fresh ordinals.
	sh.Output(bus, RegTxData, 100, 1)
	sh.Output(bus, RegTxData, 200, 2)
	sh.Output(bus, RegTxData, 300, 3)
	sh.Output(bus, RegTxDoorbell, 3, 4)

	if n.Stats.TxFrames != 1 || n.Stats.TxWords != 3 {
		t.Fatalf("stats = %+v, want one 3-word frame", n.Stats)
	}
	want := string([]byte{3, 0, 0, 0, 100, 0, 0, 0, 200, 0, 0, 0, 44, 1, 0, 0})
	if n.Replies() != want {
		t.Fatalf("transcript = %x, want %x", n.Replies(), want)
	}
}

func TestCaptureApplyRoundTrip(t *testing.T) {
	n := New(16)
	pa := n.NewPort(nil) // acting node's port
	pb := n.NewPort(nil) // backup node's port
	n.Ingress([]uint32{7, 1, 2, 3})
	n.Ingress([]uint32{8, 4})

	shA, shB := NewShadow(), NewShadow()
	c, ok := shA.Capture(portBus{pa}, memStub{})
	if !ok {
		t.Fatal("capture found nothing")
	}
	if c.Seq != 2 {
		t.Fatalf("capture watermark = %d, want 2", c.Seq)
	}
	if pa.Pending() != 0 {
		t.Fatalf("acting port still pending %d frames", pa.Pending())
	}

	// Both replicas apply the record; the backup's port is retired by
	// the consume watermark.
	shA.Apply(c, memStub{}, portBus{pa})
	shB.Apply(c, memStub{}, portBus{pb})
	if pb.Pending() != 0 {
		t.Fatalf("backup port still pending %d frames after apply", pb.Pending())
	}

	// Both shadows now serve identical frames to their guests.
	for _, sh := range []*Shadow{shA, shB} {
		if got := sh.Load(RegRxLen); got != 4 {
			t.Fatalf("head frame len = %d, want 4", got)
		}
		var words []uint32
		for j := 0; j < 4; j++ {
			words = append(words, sh.Load(RegRxData))
		}
		if words[0] != 7 || words[3] != 3 {
			t.Fatalf("head frame = %v", words)
		}
		if got := sh.Load(RegRxLen); got != 2 {
			t.Fatalf("second frame len = %d, want 2", got)
		}
	}
}

func TestRecoverSkipsBufferedCoverage(t *testing.T) {
	n := New(16)
	p := n.NewPort(nil)
	n.Ingress([]uint32{1, 11})
	n.Ingress([]uint32{2, 22})
	n.Ingress([]uint32{3, 33})

	sh := NewShadow()
	// A record covering frames <= 2 is already awaiting delivery.
	buffered := []device.Completion{{Seq: 2}}
	recs, unc := sh.Recover(portBus{p}, memStub{}, false, buffered)
	if unc != 0 || len(recs) != 1 {
		t.Fatalf("recover: %d recs, %d uncertain", len(recs), unc)
	}
	if recs[0].Seq != 3 {
		t.Fatalf("recovered watermark = %d, want 3", recs[0].Seq)
	}
	var fresh Shadow
	fresh.Apply(recs[0], memStub{}, portBus{p})
	if got := fresh.Load(RegRxData); got != 3 {
		t.Fatalf("recovered frame id = %d, want 3", got)
	}
}

func TestShadowMarshalRoundTrip(t *testing.T) {
	n := New(16)
	p := n.NewPort(nil)
	n.Ingress([]uint32{9, 1, 2})
	sh := NewShadow()
	c, _ := sh.Capture(portBus{p}, memStub{})
	sh.Apply(c, memStub{}, portBus{p})
	sh.Load(RegRxData) // partially consumed head frame

	var back Shadow
	if err := unmarshal(&back, marshal(sh)); err != nil {
		t.Fatal(err)
	}
	if got, want := back.Load(RegRxLen), sh.Load(RegRxLen); got != want {
		t.Fatalf("restored head len = %d, want %d", got, want)
	}

	// Counts come from outside the process (a state-transfer blob, a
	// forwarded record): one the bytes after it cannot hold is an error,
	// not an allocation. The first blob used to kill the process with
	// "fatal error: runtime: out of memory". A refused read may leave the
	// shadow half decoded: the hypervisor puts it back from the bytes the
	// shadow wrote of itself just before (hypervisor.RestoreState).
	keep := marshal(&back)
	for name, blob := range map[string][]byte{
		"frame count": {0xff, 0xff, 0xff, 0x7f},
		"word count":  {1, 0, 0, 0 /* seq */, 7, 0, 0, 0 /* words */, 0xff, 0xff, 0xff, 0x7f},
	} {
		if err := unmarshal(&back, blob); err == nil {
			t.Errorf("hostile %s: CodeState accepted it", name)
		}
	}
	if err := unmarshal(&back, keep); err != nil || back.Load(RegRxLen) != sh.Load(RegRxLen) {
		t.Errorf("a refused shadow does not come back from its own bytes (%v)", err)
	}
	var fresh Shadow
	fresh.Apply(device.Completion{Data: []byte{7, 0, 0, 0, 0xff, 0xff, 0xff, 0x7f}}, memStub{}, portBus{p})
	if fresh.Load(RegStatus)&StatusRxAvail != 0 {
		t.Error("Apply delivered a frame whose word count the record cannot hold")
	}
}

func TestPortCloneFrom(t *testing.T) {
	n := New(16)
	p0 := n.NewPort(nil)
	n.Ingress([]uint32{1, 5})
	n.Ingress([]uint32{2, 6})
	joiner := n.NewPort(nil)
	if joiner.Pending() != 0 {
		t.Fatal("fresh port should start empty")
	}
	joiner.CloneFrom(p0)
	if joiner.Pending() != 2 {
		t.Fatalf("cloned port pending = %d, want 2", joiner.Pending())
	}
	joiner.consume(1)
	if joiner.Pending() != 1 || p0.Pending() != 2 {
		t.Fatal("clone must not alias the source fifo")
	}
}

// oldShadow is the receive side of Shadow as it stood while popping a
// frame moved the whole backlog down a slot: the rule TestShadowDrainBacklog
// holds the ring to.
type oldShadow struct{ rx []frame }

func (s *oldShadow) apply(data []byte) {
	for len(data) > 0 {
		var f frame
		data, _ = readFrame(data, &f)
		s.rx = append(s.rx, f)
	}
}

func (s *oldShadow) loadRxData() uint32 {
	f := &s.rx[0]
	v := f.words[0]
	f.words = f.words[1:]
	if len(f.words) == 0 {
		rest := copy(s.rx, s.rx[1:])
		s.rx[rest] = frame{}
		s.rx = s.rx[:rest]
	}
	return v
}

func (s *oldShadow) marshalState() []byte {
	b := binary.LittleEndian.AppendUint32(nil, uint32(len(s.rx)))
	for _, f := range s.rx {
		b = binary.LittleEndian.AppendUint32(b, f.seq)
		b = binary.LittleEndian.AppendUint32(b, uint32(len(f.words)))
		for _, w := range f.words {
			b = binary.LittleEndian.AppendUint32(b, w)
		}
	}
	return b
}

// TestShadowDrainBacklog drains a 1 000-frame backlog word by word, new
// frames arriving on the way so that the ring wraps and grows while it is
// read, and compares the encoded state after every pop and every arrival
// with the old rule's — which paid a typedslicecopy of the whole backlog
// per frame near a rate ladder's knee. CodeState must not be able to
// tell a ring from a slice; a drained shadow keeps its array; and a
// decoded state carries on.
func TestShadowDrainBacklog(t *testing.T) {
	const frames = 1000
	record := func(from, to uint32) []byte {
		var data []byte
		for i := from; i < to; i++ {
			n := 1 + i%3
			data = binary.LittleEndian.AppendUint32(data, i)
			data = binary.LittleEndian.AppendUint32(data, n)
			for j := uint32(0); j < n; j++ {
				data = binary.LittleEndian.AppendUint32(data, i<<8|j)
			}
		}
		return data
	}
	p := New(16).NewPort(nil)
	sh, old := NewShadow(), &oldShadow{}
	next := uint32(1)
	deliver := func(n uint32) {
		data := record(next, next+n)
		next += n
		sh.Apply(device.Completion{Data: data}, memStub{}, portBus{p})
		old.apply(data)
	}
	same := func(what string, i int) {
		t.Helper()
		if a, b := marshal(sh), old.marshalState(); string(a) != string(b) {
			t.Fatalf("%s %d: encoded state differs from the old rule's (%d against %d bytes)", what, i, len(a), len(b))
		}
	}
	deliver(frames)
	same("delivery", 0)
	pops := 0
	for sh.Load(RegStatus)&StatusRxAvail != 0 {
		if got, want := sh.Load(RegRxData), old.loadRxData(); got != want {
			t.Fatalf("pop %d: read %#x, the old rule read %#x", pops, got, want)
		}
		pops++
		same("pop", pops)
		if pops%97 == 0 && next < 3*frames {
			deliver(uint32(pops % 61)) // while draining: the ring wraps, and now and then grows
			same("delivery at pop", pops)
		}
		if pops == 1500 {
			// A decoded state is a full ring with its head at zero.
			back := NewShadow()
			if err := unmarshal(back, marshal(sh)); err != nil {
				t.Fatal(err)
			}
			sh = back
		}
	}
	if pops < 2*frames || len(old.rx) != 0 {
		t.Fatalf("drained %d words, the old rule left %d frames", pops, len(old.rx))
	}
	if got := sh.Load(RegRxData); got != 0 {
		t.Fatalf("empty shadow read %#x", got)
	}
	// The drained shadow still takes frames, into the array it had.
	if before := cap(sh.ring); sh.n != 0 || before == 0 {
		t.Fatalf("drained shadow: %d pending, ring of %d", sh.n, before)
	} else if deliver(2); cap(sh.ring) != before {
		t.Fatalf("a drained shadow reallocated its ring: %d slots, then %d", before, cap(sh.ring))
	}
	same("delivery after the drain", 0)
	if sh.Load(RegRxSeq) != next-2 || sh.Load(RegRxLen) != 1+(next-2)%3 {
		t.Fatal("a drained shadow lost a delivered frame")
	}
}

// TestOnePurityRule: the port (a bare machine's loads) and the shadow (a
// hypervisor's) declare the same registers pure, because both answer
// from popsOnRead — and every register declared pure is: loaded twice it
// reads the same and leaves the port's and the shadow's state as it
// found them. The one register that is not pops.
func TestOnePurityRule(t *testing.T) {
	n := New(16)
	p := n.NewPort(nil)
	n.Ingress([]uint32{7, 1, 2, 3})
	n.Ingress([]uint32{8, 4})
	p.MMIOStore(RegOutSeq, 4, 5)
	s := NewShadow()
	for _, f := range []frame{{seq: 1, words: []uint32{7, 1, 2, 3}}, {seq: 2, words: []uint32{8, 4}}} {
		*s.tail() = f
		s.n++
	}
	for off := uint32(0); off < Window; off += 4 {
		if p.MMIOPure(off) != s.PureLoad(off) {
			t.Fatalf("register %#x: port pure %v, shadow pure %v", off, p.MMIOPure(off), s.PureLoad(off))
		}
		port, shadow := p.StateDigest(), string(marshal(s))
		v1, err1 := p.MMIOLoad(off, 4)
		v2, err2 := p.MMIOLoad(off, 4)
		w1, w2 := s.Load(off), s.Load(off)
		moved := p.StateDigest() != port || string(marshal(s)) != shadow
		switch {
		case !p.MMIOPure(off) && !moved:
			t.Fatalf("register %#x is declared impure and popped nothing", off)
		case !p.MMIOPure(off):
		case v1 != v2 || err1 != err2 || w1 != w2:
			t.Fatalf("pure register %#x read %#x then %#x (port), %#x then %#x (shadow)", off, v1, v2, w1, w2)
		case moved:
			t.Fatalf("pure register %#x moved the port's or the shadow's state", off)
		}
	}
}

// TestIngressRefusesIDsOutsidePopulation: the request-ID table is sized
// from the client population, so an ID it cannot index — 0, or above the
// population — is refused and counted, and reaches no port and no table.
func TestIngressRefusesIDsOutsidePopulation(t *testing.T) {
	n := New(4)
	p := n.NewPort(nil)
	before := n.StateDigest()
	for _, id := range []uint32{0, 5, 1<<32 - 1} {
		if reply, accepted := n.Ingress([]uint32{id, 1, 2}); accepted || reply != nil {
			t.Fatalf("request %d: accepted=%v reply=%v", id, accepted, reply)
		}
	}
	if n.Stats.Refused != 3 || n.Stats.Requests != 0 || n.Stats.Retransmits != 0 || p.Pending() != 0 {
		t.Fatalf("after three refusals: stats %+v, %d pending", n.Stats, p.Pending())
	}
	if len(n.reqs) != 4 || cap(n.reqs) != 4 || n.StateDigest() != before {
		t.Fatalf("a refusal grew the table to %d (cap %d) or moved the digest", len(n.reqs), cap(n.reqs))
	}
	if _, accepted := n.Ingress([]uint32{4, 1}); !accepted {
		t.Fatal("the population's last ID was refused")
	}
}

// mapDigest is StateDigest as it stood while the dedup and reply logs
// were maps keyed by request ID — seen and replyFor, which the caller
// rebuilds from the traffic it generated.
func mapDigest(n *NIC, seen map[uint32]bool, replyFor map[uint32][]uint32) uint64 {
	h := fnv.New64a()
	h.Write(n.tx)
	var b [4]byte
	put := func(vs ...uint32) {
		for _, v := range vs {
			b[0], b[1], b[2], b[3] = byte(v), byte(v>>8), byte(v>>16), byte(v>>24)
			h.Write(b[:])
		}
	}
	put(n.highWater, n.nextSeq, uint32(len(n.txBuf)))
	put(n.txBuf...)
	put(uint32(n.Stats.Requests), uint32(n.Stats.Retransmits), uint32(n.Stats.Replayed),
		uint32(n.Stats.TxFrames), uint32(n.Stats.TxWords))
	var fold uint64
	for id := range seen {
		e := fnv.New64a()
		var eb [4]byte
		eb[0], eb[1], eb[2], eb[3] = byte(id), byte(id>>8), byte(id>>16), byte(id>>24)
		e.Write(eb[:])
		if r := replyFor[id]; r != nil {
			for _, w := range r {
				eb[0], eb[1], eb[2], eb[3] = byte(w), byte(w>>8), byte(w>>16), byte(w>>24)
				e.Write(eb[:])
			}
		}
		fold ^= e.Sum64()
	}
	put(uint32(fold), uint32(fold>>32), uint32(len(n.ports)))
	for _, p := range n.ports {
		put(uint32(len(p.fifo)))
		for _, f := range p.fifo {
			put(f.seq, uint32(len(f.words)))
			put(f.words...)
		}
		if p.Detached {
			put(1)
		} else {
			put(0)
		}
		put(p.outSeq)
	}
	return h.Sum64()
}

// TestStateDigestMatchesMapTables: checkpoints embed the NIC's digest, so
// the ID-indexed tables must fold to exactly what the maps did, at every
// step of in-range traffic — arrivals, retransmissions of queued and of
// answered requests, replies (one answered twice), a half-assembled
// frame.
func TestStateDigestMatchesMapTables(t *testing.T) {
	const population = 40
	n := New(population)
	p := n.NewPort(nil)
	n.NewPort(nil)
	seen, replyFor := map[uint32]bool{}, map[uint32][]uint32{}
	n.OnTx = func(words []uint32) { replyFor[words[0]] = append([]uint32(nil), words...) }
	check := func(step int) {
		t.Helper()
		if got, want := n.StateDigest(), mapDigest(n, seen, replyFor); got != want {
			t.Fatalf("step %d: digest %#x, the maps' %#x", step, got, want)
		}
	}
	answer := func(id uint32, words ...uint32) {
		p.MMIOStore(RegTxData, 4, id)
		for _, w := range words {
			p.MMIOStore(RegTxData, 4, w)
		}
		p.MMIOStore(RegTxDoorbell, 4, uint32(1+len(words)))
	}
	check(0)
	var arrived []uint32
	for step := 1; step <= 200; step++ {
		id := uint32(step*7%population + 1)
		switch step % 5 {
		case 0, 1, 2:
			n.Ingress([]uint32{id, uint32(step), uint32(step * step)})
			seen[id] = true
			arrived = append(arrived, id)
		case 3:
			answer(arrived[step*13%len(arrived)], uint32(step), 0xABCD)
		case 4:
			p.MMIOStore(RegTxData, 4, uint32(step)) // left half-assembled until the next answer
		}
		check(step)
	}
	if n.Stats.Replayed == 0 || n.Stats.Retransmits == n.Stats.Replayed || len(replyFor) < 10 {
		t.Fatalf("the traffic missed a case: %+v, %d replies", n.Stats, len(replyFor))
	}
}

// TestShadowArenaReuse: a released shadow hands its frame ring back to
// its arena, and the next shadow over the arena starts empty in that
// ring — nothing of the frames still pending at release is visible —
// and reads and encodes what it is delivered as a fresh shadow does.
func TestShadowArenaReuse(t *testing.T) {
	record := func(from, to uint32) []byte {
		var data []byte
		for i := from; i < to; i++ {
			data = binary.LittleEndian.AppendUint32(data, i)
			data = binary.LittleEndian.AppendUint32(data, 2)
			data = binary.LittleEndian.AppendUint32(data, i<<8)
			data = binary.LittleEndian.AppendUint32(data, i<<8|1)
		}
		return data
	}
	var a Arena
	p := New(64).NewPort(nil)
	first := NewShadowIn(&a)
	first.Apply(device.Completion{Data: record(1, 20)}, memStub{}, portBus{p})
	first.Load(RegRxData)
	ring := first.ring
	first.Release()

	second, fresh := NewShadowIn(&a), NewShadow()
	if &second.ring[0] != &ring[0] {
		t.Fatal("the second shadow did not take the ring the first released")
	}
	if second.Load(RegStatus)&StatusRxAvail != 0 || second.Load(RegRxData) != 0 {
		t.Fatal("a shadow over a recycled ring shows a frame it was never delivered")
	}
	for _, sh := range []*Shadow{second, fresh} {
		sh.Apply(device.Completion{Data: record(30, 33)}, memStub{}, portBus{New(64).NewPort(nil)})
	}
	if got, want := marshal(second), marshal(fresh); string(got) != string(want) {
		t.Fatalf("a shadow over a recycled ring encodes %d bytes, a fresh one %d", len(got), len(want))
	}
	for second.Load(RegStatus)&StatusRxAvail != 0 {
		if got, want := second.Load(RegRxData), fresh.Load(RegRxData); got != want {
			t.Fatalf("recycled ring read %#x, fresh %#x", got, want)
		}
	}
}

// TestRequestLogAcrossChunks: a port's queued frames are slices of the
// adapter's request log, and the log grows by chunks, never by moving
// one. Frames that straddle a chunk's end, and one longer than a chunk,
// read back word for word on the first port, on a port cloned from it
// mid-stream and on one attached later; the log's copy is capped, so an
// append to it cannot reach the next frame.
func TestRequestLogAcrossChunks(t *testing.T) {
	const requests = 3 * logChunk / 7
	n := New(requests + 2)
	first := n.NewPort(nil)
	want := make([][]uint32, 0, requests+2)
	ingress := func(id uint32, words int) {
		f := make([]uint32, words)
		f[0] = id
		for i := 1; i < words; i++ {
			f[i] = id<<12 | uint32(i)
		}
		if _, ok := n.Ingress(f); !ok {
			t.Fatalf("request %d refused", id)
		}
		want = append(want, slices.Clone(f))
		clear(f) // the caller keeps its words
	}
	for id := uint32(1); id <= requests/2; id++ {
		ingress(id, 7)
	}
	clone := n.NewPort(nil)
	clone.CloneFrom(first)
	ingress(requests/2+1, logChunk+3)
	for id := uint32(requests/2 + 2); id <= requests+2; id++ {
		ingress(id, 7)
	}
	if n.log.used < 3 {
		t.Fatalf("the log holds %d chunks; the test must cross chunk ends", n.log.used)
	}
	if f := first.fifo[0].words; cap(f) != len(f) {
		t.Fatalf("a queued frame has %d words of room past its end", cap(f)-len(f))
	}
	for _, p := range []*Port{first, clone} {
		for i, w := range want {
			if got := p.fifo[i].words; !slices.Equal(got, w) {
				t.Fatalf("frame %d reads %d words %v..., want %d words %v...", i, len(got), got[:2], len(w), w[:2])
			}
		}
	}
}

// TestNICArenaReuse: an adapter built over an arena that served a larger
// population serves its own: its table refuses what a fresh adapter's
// refuses, its ports start empty, and the same traffic leaves the same
// transcript and digest as on a fresh adapter.
func TestNICArenaReuse(t *testing.T) {
	traffic := func(n *NIC) {
		p := n.NewPort(nil)
		for id := uint32(1); id <= 4; id++ {
			n.Ingress([]uint32{id, id * 3})
		}
		n.Ingress([]uint32{2, 6}) // queued: dropped
		for id := uint32(1); id <= 4; id++ {
			p.MMIOStore(RegTxData, 4, id)
			p.MMIOStore(RegTxData, 4, id*9)
			p.MMIOStore(RegTxDoorbell, 4, 2)
		}
		n.Ingress([]uint32{3, 9}) // answered: replayed
		n.Ingress([]uint32{5, 1}) // outside the population
	}
	var a Arena
	big := NewIn(&a, 64)
	p := big.NewPort(nil)
	for id := uint32(1); id <= 64; id++ {
		big.Ingress([]uint32{id, 1, 2, 3})
		p.MMIOStore(RegTxData, 4, id)
		p.MMIOStore(RegTxDoorbell, 4, 1)
	}
	big.Release()
	if big.Replies() != "" {
		t.Fatal("a released adapter still reads its transcript")
	}

	recycled, fresh := NewIn(&a, 4), New(4)
	for _, n := range []*NIC{recycled, fresh} {
		traffic(n)
	}
	if recycled.Stats != fresh.Stats || recycled.Stats.Refused != 1 || recycled.Stats.Replayed != 1 {
		t.Fatalf("over a recycled arena: %+v; fresh: %+v", recycled.Stats, fresh.Stats)
	}
	if recycled.Replies() != fresh.Replies() || recycled.StateDigest() != fresh.StateDigest() {
		t.Fatal("over a recycled arena the transcript or the digest differs from a fresh adapter's")
	}
}

// marshal is the shadow's state as CodeState writes it.
func marshal(s *Shadow) []byte {
	var w snapshot.Writer
	s.CodeState(w.Codec())
	return w.Since(0)
}

// unmarshal decodes b into s as the hypervisor's RestoreState does: a
// refused read may leave s half decoded.
func unmarshal(s *Shadow, b []byte) error {
	var r snapshot.Reader
	r.Nested(b)
	s.CodeState(r.Codec())
	return r.Done()
}
