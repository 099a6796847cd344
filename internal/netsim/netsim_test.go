package netsim

import (
	"testing"
	"testing/quick"

	"repro/internal/sim"
)

// receive starts a step process that takes n messages from l's inbox, in
// order, handing each to got.
func receive(k *sim.Kernel, l *Link, n int, got func(Message)) {
	k.Start("rx", func(*sim.Proc) (sim.Time, sim.StepStatus) {
		for ; n > 0; n-- {
			m, ok := l.Inbox.TryRecv()
			if !ok {
				return l.Inbox.Await(sim.Forever)
			}
			got(m)
		}
		return 0, sim.StepDone
	})
}

func TestFIFODelivery(t *testing.T) {
	k := sim.NewKernel(1)
	defer k.Shutdown()
	l := NewLink(k, Ethernet10("test"))
	var got []int
	receive(k, l, 5, func(m Message) {
		if m.Seq != uint64(len(got)) {
			t.Errorf("seq = %d, want %d", m.Seq, len(got))
		}
		got = append(got, m.Payload.(int))
	})
	k.Spawn("tx", func(p *sim.Proc) {
		for i := 0; i < 5; i++ {
			l.Send(i, 100)
		}
	})
	k.Run()
	for i := 0; i < 5; i++ {
		if got[i] != i {
			t.Fatalf("got = %v, want in-order 0..4", got)
		}
	}
	if l.Stats.MessagesDelivered != 5 || l.Stats.MessagesSent != 5 {
		t.Errorf("stats = %+v", l.Stats)
	}
}

func TestTransferTimeModel(t *testing.T) {
	k := sim.NewKernel(1)
	defer k.Shutdown()
	l := NewLink(k, Ethernet10("test"))
	// 8 KiB payload: 8 data frames + 1 control frame (the paper's "9
	// messages for the data").
	if f := l.frames(8192); f != 9 {
		t.Errorf("frames(8192) = %d, want 9", f)
	}
	if f := l.frames(0); f != 1 {
		t.Errorf("frames(0) = %d, want 1", f)
	}
	if f := l.frames(1); f != 2 {
		t.Errorf("frames(1) = %d, want 2 (control + 1 data)", f)
	}
	// 8 KiB at 10 Mbps: (8192 + 9*26)*8 bits / 10 Mbps = 6.74 ms.
	tx := l.TxTime(8192)
	wantLo, wantHi := 6*sim.Millisecond, 8*sim.Millisecond
	if tx < wantLo || tx > wantHi {
		t.Errorf("TxTime(8192) = %v, want ~6.7ms", tx)
	}
	// ATM is far faster.
	atm := NewLink(k, ATM155("atm"))
	if atm.TxTime(8192) >= tx/10 {
		t.Errorf("ATM TxTime = %v not ≪ Ethernet %v", atm.TxTime(8192), tx)
	}
	// Full transfer adds setup + latency.
	if got := l.TransferTime(8192); got != l.cfg.SetupTime+tx+l.cfg.Latency {
		t.Errorf("TransferTime = %v", got)
	}
}

func TestSerializationQueuing(t *testing.T) {
	k := sim.NewKernel(1)
	defer k.Shutdown()
	l := NewLink(k, Ethernet10("test"))
	var arrivals []sim.Time
	receive(k, l, 2, func(m Message) { arrivals = append(arrivals, m.DeliveredAt) })
	k.Spawn("tx", func(p *sim.Proc) {
		l.Send("a", 1024)
		l.Send("b", 1024) // must queue behind "a"
	})
	k.Run()
	if len(arrivals) != 2 {
		t.Fatalf("arrivals = %v", arrivals)
	}
	gap := arrivals[1] - arrivals[0]
	tx := l.TxTime(1024)
	if gap < tx {
		t.Errorf("second message arrived %v after first; want >= one tx time %v", gap, tx)
	}
}

func TestDisconnectSeversNewSendsOnly(t *testing.T) {
	k := sim.NewKernel(1)
	defer k.Shutdown()
	l := NewLink(k, Ethernet10("test"))
	l.Send("in-flight", 100)
	l.Disconnect()
	l.Send("after", 100)
	k.Run()
	// Fail-stop semantics: the message already on the wire arrives; the
	// send attempted after the disconnect is refused.
	if l.Inbox.Len() != 1 {
		t.Errorf("delivered = %d, want 1 (the in-flight message survives the sender)", l.Inbox.Len())
	}
	if !l.Down() {
		t.Error("Down() = false")
	}
	if l.Stats.MessagesDropped != 1 {
		t.Errorf("dropped = %d, want 1 (the post-disconnect send)", l.Stats.MessagesDropped)
	}
}

func TestDropNext(t *testing.T) {
	k := sim.NewKernel(1)
	defer k.Shutdown()
	l := NewLink(k, Ethernet10("test"))
	l.DropNext(1)
	l.Send("lost", 10)
	l.Send("kept", 10)
	k.Run()
	if l.Inbox.Len() != 1 {
		t.Fatalf("inbox len = %d, want 1", l.Inbox.Len())
	}
	m, _ := l.Inbox.TryRecv()
	if m.Payload.(string) != "kept" {
		t.Errorf("delivered %v, want kept", m.Payload)
	}
}

func TestDuplex(t *testing.T) {
	k := sim.NewKernel(1)
	defer k.Shutdown()
	d := NewDuplex(k, "pair", Ethernet10(""))
	d.AtoB.Send("to-b", 10)
	d.BtoA.Send("to-a", 10)
	k.Run()
	if d.AtoB.Inbox.Len() != 1 || d.BtoA.Inbox.Len() != 1 {
		t.Error("duplex delivery failed")
	}
	d.DisconnectAll()
	if !d.AtoB.Down() || !d.BtoA.Down() {
		t.Error("DisconnectAll incomplete")
	}
}

func TestLatencyOrderingAcrossSizes(t *testing.T) {
	// A huge message followed by a tiny one must still deliver in order
	// (FIFO serialization, no overtaking).
	k := sim.NewKernel(1)
	defer k.Shutdown()
	l := NewLink(k, Ethernet10("test"))
	var order []string
	receive(k, l, 2, func(m Message) { order = append(order, m.Payload.(string)) })
	l.Send("big", 64*1024)
	l.Send("small", 1)
	k.Run()
	if len(order) != 2 || order[0] != "big" || order[1] != "small" {
		t.Errorf("order = %v, want [big small]", order)
	}
}

// Property: regardless of message sizes, delivery preserves send order
// and never precedes the minimum physically possible arrival time.
func TestFIFOOrderProperty(t *testing.T) {
	prop := func(sizes []uint16) bool {
		k := sim.NewKernel(1)
		defer k.Shutdown()
		l := NewLink(k, Ethernet10("prop"))
		type rec struct {
			seq uint64
			at  sim.Time
		}
		var got []rec
		for i, sz := range sizes {
			l.Send(i, int(sz))
		}
		receive(k, l, len(sizes), func(m Message) { got = append(got, rec{m.Seq, m.DeliveredAt}) })
		k.Run()
		if len(got) != len(sizes) {
			return false
		}
		for i := 1; i < len(got); i++ {
			if got[i].seq != got[i-1].seq+1 || got[i].at < got[i-1].at {
				return false
			}
		}
		for i, r := range got {
			if r.at < l.Config().SetupTime+l.TxTime(int(sizes[i]))+l.Config().Latency {
				return false // arrived faster than physics allows
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestDefaultsApplied(t *testing.T) {
	k := sim.NewKernel(1)
	defer k.Shutdown()
	l := NewLink(k, LinkConfig{Name: "raw"})
	c := l.Config()
	if c.BitsPerSecond != 10_000_000 || c.MTU != 1024 || c.PerMessageFrames != 1 {
		t.Errorf("defaults = %+v", c)
	}
}

// TestLinkArena: a released link goes back to its arena emptied, what
// it still held in flight or unread dropped (the rings clear their slots:
// TestRingReuse), and the next link over the arena is the same struct,
// inbox included, and delivers in order as a fresh link does.
func TestLinkArena(t *testing.T) {
	var a Arena
	k := sim.NewKernel(1)
	first := NewLinkIn(&a, k, Ethernet10("link"))
	for i := range 20 {
		first.Send(&i, 100)
	}
	k.RunUntil(first.TransferTime(100) * 4) // some delivered, some still in flight
	if first.Inbox.Len() == 0 || first.inflight.Len() == 0 {
		t.Fatalf("inbox %d, in flight %d: the test needs both rings holding messages",
			first.Inbox.Len(), first.inflight.Len())
	}
	inbox := first.Inbox
	k.Shutdown()
	first.Release()
	first.Release() // a second Release hands nothing back twice
	if first.Inbox.Len() != 0 || first.inflight.Len() != 0 || first.k != nil {
		t.Fatal("a released link still holds messages or its kernel")
	}

	k = sim.NewKernel(2)
	defer k.Shutdown()
	second := NewLinkIn(&a, k, Ethernet10("link"))
	if second != first || second.Inbox != inbox || second.Stats != (Stats{}) {
		t.Fatal("the second link is not the first one's struct and inbox, rebuilt")
	}
	if _, ok := a.links.Get(); ok {
		t.Fatal("the arena kept a second link")
	}
	var got []int
	receive(k, second, 5, func(m Message) { got = append(got, m.Payload.(int)) })
	for i := range 5 {
		second.Send(i, 100)
	}
	k.Run()
	if len(got) != 5 || got[0] != 0 || got[4] != 4 || second.Stats.MessagesDelivered != 5 {
		t.Fatalf("the link over recycled rings delivered %v (%+v)", got, second.Stats)
	}
}
