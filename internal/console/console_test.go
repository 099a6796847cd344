package console

import (
	"testing"

	"repro/internal/snapshot"
)

func TestOutputAccumulates(t *testing.T) {
	c := New()
	p := c.NewPort(nil)
	for _, ch := range "hello" {
		if err := p.MMIOStore(RegData, 4, uint32(ch)); err != nil {
			t.Fatal(err)
		}
	}
	if c.Output() != "hello" {
		t.Errorf("output = %q", c.Output())
	}
	if c.Writes != 5 {
		t.Errorf("writes = %d", c.Writes)
	}
}

func TestStatusAlwaysReady(t *testing.T) {
	c := New()
	p := c.NewPort(nil)
	v, err := p.MMIOLoad(RegStatus, 4)
	if err != nil || v != StatusReady {
		t.Errorf("status = %d, %v", v, err)
	}
	if v, err := p.MMIOLoad(RegData, 4); err != nil || v != 0 {
		t.Errorf("data read = %d, %v", v, err)
	}
}

func TestStatusWriteIgnored(t *testing.T) {
	c := New()
	p := c.NewPort(nil)
	if err := p.MMIOStore(RegStatus, 4, 99); err != nil {
		t.Errorf("status write errored: %v", err)
	}
	if c.Output() != "" {
		t.Error("status write produced output")
	}
}

func TestBadRegister(t *testing.T) {
	c := New()
	p := c.NewPort(nil)
	if _, err := p.MMIOLoad(0x1C, 4); err == nil {
		t.Error("bad load offset accepted")
	}
	if err := p.MMIOStore(0x1C, 4, 0); err == nil {
		t.Error("bad store offset accepted")
	}
}

func TestReset(t *testing.T) {
	c := New()
	p := c.NewPort(nil)
	p.MMIOStore(RegData, 4, 'x')
	c.Reset()
	if c.Output() != "" || c.Writes != 0 {
		t.Error("reset incomplete")
	}
}

func TestOnlyLowByteEmitted(t *testing.T) {
	c := New()
	p := c.NewPort(nil)
	p.MMIOStore(RegData, 4, 0x12345641) // 'A' in low byte
	if c.Output() != "A" {
		t.Errorf("output = %q, want A", c.Output())
	}
}

func TestInputFansOutToEveryPort(t *testing.T) {
	c := New()
	raised := 0
	p0 := c.NewPort(func() { raised++ })
	p1 := c.NewPort(nil)
	c.Input([]byte("ab"))
	if raised != 1 {
		t.Errorf("irq raised %d times, want 1", raised)
	}
	for _, p := range []*Port{p0, p1} {
		if s, _ := p.MMIOLoad(RegStatus, 4); s&StatusRxAvail == 0 {
			t.Fatal("input not pending")
		}
		if seq, _ := p.MMIOLoad(RegInSeq, 4); seq != 1 {
			t.Errorf("head seq = %d, want 1", seq)
		}
		if b, _ := p.MMIOLoad(RegIn, 4); b != 'a' {
			t.Errorf("pop = %q, want a", b)
		}
		if seq, _ := p.MMIOLoad(RegInSeq, 4); seq != 2 {
			t.Errorf("head seq after pop = %d, want 2", seq)
		}
	}
}

func TestConsumeRetiresThroughWatermark(t *testing.T) {
	c := New()
	p := c.NewPort(nil)
	c.Input([]byte("abc")) // seqs 1..3
	p.MMIOStore(RegConsume, 4, 2)
	if p.Pending() != 1 {
		t.Fatalf("pending = %d, want 1", p.Pending())
	}
	if b, _ := p.MMIOLoad(RegIn, 4); b != 'c' {
		t.Errorf("pop = %q, want c", b)
	}
	// Consuming again past the watermark is a no-op (idempotent).
	p.MMIOStore(RegConsume, 4, 2)
	if p.Pending() != 0 {
		t.Errorf("pending = %d, want 0", p.Pending())
	}
}

func TestOutputOrdinalDedup(t *testing.T) {
	c := New()
	p := c.NewPort(nil)
	emit := func(ord uint32, b byte) {
		p.MMIOStore(RegOutSeq, 4, ord)
		p.MMIOStore(RegData, 4, uint32(b))
	}
	emit(1, 'x')
	emit(2, 'y')
	// A promoted backup re-emitting the failover epoch: ordinals 1-3.
	emit(1, 'x')
	emit(2, 'y')
	emit(3, 'z')
	if c.Output() != "xyz" {
		t.Errorf("output = %q, want xyz (exactly-once)", c.Output())
	}
	// Untagged writes (bare machine) always apply.
	p.MMIOStore(RegData, 4, '!')
	if c.Output() != "xyz!" {
		t.Errorf("output = %q", c.Output())
	}
}

func TestDetachedPortStopsRaising(t *testing.T) {
	c := New()
	raised := 0
	p := c.NewPort(func() { raised++ })
	p.Detached = true
	c.Input([]byte("a"))
	if raised != 0 {
		t.Error("detached port raised its line")
	}
	if p.Pending() != 1 {
		t.Error("detached port lost the input record")
	}
}

func TestShadowRoundTrip(t *testing.T) {
	c := New()
	p := c.NewPort(nil)
	c.Input([]byte("hi!")) // seqs 1..3
	sh := NewShadow()
	bus := portBus{p: p}
	rec, ok := sh.Capture(bus, nil)
	if !ok || string(rec.Data) != "hi!" || rec.Seq != 3 {
		t.Fatalf("capture = %q seq %d ok %v", rec.Data, rec.Seq, ok)
	}
	if p.Pending() != 0 {
		t.Error("capture left input pending")
	}
	// A second shadow (another replica) applies the record: the guest
	// sees the bytes; its port (which never captured) is reconciled.
	sh2 := NewShadow()
	p2 := c.NewPort(nil)
	c.Input([]byte("x")) // seq 4, lands on p2 only from now
	sh2.Apply(rec, nil, portBus{p: p2})
	if s := sh2.Load(RegStatus); s&StatusRxAvail == 0 {
		t.Fatal("applied input not visible")
	}
	got := ""
	for sh2.Load(RegStatus)&StatusRxAvail != 0 {
		got += string(rune(sh2.Load(RegIn)))
	}
	if got != "hi!" {
		t.Errorf("guest read %q, want hi!", got)
	}
	// Marshal/unmarshal round-trips pending shadow input.
	sh2.rx = []byte("rem")
	blob := marshal(sh2)
	var sh3 Shadow
	if err := unmarshal(&sh3, blob); err != nil {
		t.Fatal(err)
	}
	if string(sh3.rx) != "rem" {
		t.Errorf("restored rx = %q", sh3.rx)
	}
}

// portBus adapts a Port to device.Bus for direct shadow tests.
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

// TestOnePurityRule: the port (a bare machine's loads) and the shadow (a
// hypervisor's) declare the same registers pure, because both answer
// from popsOnRead — and every register declared pure is: loaded twice it
// reads the same and leaves the port's and the shadow's state as it
// found them. The one register that is not pops.
func TestOnePurityRule(t *testing.T) {
	c := New()
	p := c.NewPort(nil)
	c.Input([]byte("abc"))
	p.MMIOStore(RegOutSeq, 4, 5)
	s := NewShadow()
	s.rx = []byte("xyz")
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
