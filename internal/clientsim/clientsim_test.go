package clientsim

import (
	"testing"

	"repro/internal/netsim"
	"repro/internal/nic"
	"repro/internal/sim"
)

// echoServer answers every accepted request immediately through a NIC
// port, like an infinitely fast guest (unit-test stand-in).
func echoServer(n *nic.NIC) *nic.Port {
	p := n.NewPort(nil)
	n.OnIngress = func(seq uint32, words []uint32) {
		for p.Pending() > 0 {
			ln, _ := p.MMIOLoad(nic.RegRxLen, 4)
			var sum, id uint32
			for j := uint32(0); j < ln; j++ {
				w, _ := p.MMIOLoad(nic.RegRxData, 4)
				if j == 0 {
					id = w
				} else {
					sum = sum*31 + w
				}
			}
			p.MMIOStore(nic.RegTxData, 4, id)
			p.MMIOStore(nic.RegTxData, 4, sum^id)
			p.MMIOStore(nic.RegTxDoorbell, 4, 2)
		}
	}
	return p
}

func TestOpenLoopLoadIsServedAndMeasured(t *testing.T) {
	k := sim.NewKernel(7)
	n := nic.New(40)
	echoServer(n)
	net := netsim.NewDuplex(k, netsim.Ethernet10("clients"))
	cs := New(k, Config{Requests: 40, Clients: 8}, n, net)
	cs.Start()
	k.RunUntil(1 * sim.Second)

	m := cs.Measure()
	if m.Requests != 40 || m.Answered != 40 {
		t.Fatalf("issued %d answered %d, want 40/40", m.Requests, m.Answered)
	}
	if m.Retransmits != 0 {
		t.Fatalf("unexpected retransmits: %d", m.Retransmits)
	}
	if m.P50 <= 0 || m.P99 < m.P50 || m.Max < m.P999 {
		t.Fatalf("implausible latency distribution: %+v", m)
	}
	if n.Stats.Requests != 40 || n.Stats.TxFrames != 40 {
		t.Fatalf("nic stats: %+v", n.Stats)
	}
}

func TestRetransmitDuringOutage(t *testing.T) {
	k := sim.NewKernel(7)
	n := nic.New(10)
	p := n.NewPort(nil)
	// The server ignores requests until t=10ms (an outage), then serves
	// everything pending.
	serve := func() {
		for p.Pending() > 0 {
			ln, _ := p.MMIOLoad(nic.RegRxLen, 4)
			var id uint32
			for j := uint32(0); j < ln; j++ {
				w, _ := p.MMIOLoad(nic.RegRxData, 4)
				if j == 0 {
					id = w
				}
			}
			p.MMIOStore(nic.RegTxData, 4, id)
			p.MMIOStore(nic.RegTxData, 4, id)
			p.MMIOStore(nic.RegTxDoorbell, 4, 2)
		}
	}
	k.At(10*sim.Millisecond, serve)
	net := netsim.NewDuplex(k, netsim.Ethernet10("clients"))
	cs := New(k, Config{Requests: 10, Clients: 4, Timeout: 1 * sim.Millisecond}, n, net)
	cs.Start()
	k.RunUntil(1 * sim.Second)

	m := cs.Measure()
	if m.Answered != 10 {
		t.Fatalf("answered %d, want 10", m.Answered)
	}
	if m.Retransmits == 0 {
		t.Fatal("a 10ms outage with a 1ms timeout must force retransmissions")
	}
	// Retransmissions must never reach the guest: one accepted request
	// frame per distinct request, regardless of attempts.
	if n.Stats.Requests != 10 {
		t.Fatalf("nic accepted %d distinct requests, want 10", n.Stats.Requests)
	}
	if n.Stats.Retransmits == 0 {
		t.Fatal("nic saw no duplicate frames despite retransmissions")
	}
	// The outage is visible in the measured blackout window.
	if bo := cs.Blackout(5 * sim.Millisecond); bo < 5*sim.Millisecond {
		t.Fatalf("blackout = %v, want >= 5ms", bo)
	}
}

func TestDeterministicReplay(t *testing.T) {
	run := func() (uint64, string) {
		k := sim.NewKernel(99)
		n := nic.New(25)
		echoServer(n)
		net := netsim.NewDuplex(k, netsim.ATM155("clients"))
		cs := New(k, Config{Requests: 25}, n, net)
		cs.Start()
		k.RunUntil(1 * sim.Second)
		return cs.StateDigest(), n.Replies()
	}
	d1, r1 := run()
	d2, r2 := run()
	if d1 != d2 || r1 != r2 {
		t.Fatal("two identically-seeded runs diverged")
	}
}

// An answered request must not leave its retransmission timer parked in
// the event heap for the rest of Timeout: once every reply is in, the
// population has nothing pending — on the clean path (timer armed once,
// canceled by the reply) and after an outage (only the newest re-arm can
// be pending, and the reply cancels that one).
func TestAnsweredRequestsLeaveNoTimers(t *testing.T) {
	t.Run("clean", func(t *testing.T) {
		k := sim.NewKernel(7)
		n := nic.New(40)
		echoServer(n)
		net := netsim.NewDuplex(k, netsim.Ethernet10("clients"))
		cs := New(k, Config{Requests: 40, Clients: 8, Timeout: 10 * sim.Second}, n, net)
		cs.Start()
		k.RunUntil(1 * sim.Second)
		if m := cs.Measure(); m.Answered != 40 || m.Retransmits != 0 {
			t.Fatalf("answered %d with %d retransmits, want 40 with 0", m.Answered, m.Retransmits)
		}
		if at, ok := k.NextEventTime(); ok {
			t.Fatalf("all 40 replies are in but an event is still pending at %v", at)
		}
	})
	t.Run("after outage", func(t *testing.T) {
		k := sim.NewKernel(7)
		n := nic.New(10)
		p := echoServer(n)
		serve := n.OnIngress
		n.OnIngress = nil // outage: requests queue at the port unanswered
		k.At(10*sim.Millisecond, func() {
			n.OnIngress = serve
			serve(0, nil)
		})
		net := netsim.NewDuplex(k, netsim.Ethernet10("clients"))
		cs := New(k, Config{Requests: 10, Clients: 4, Timeout: 1 * sim.Millisecond}, n, net)
		cs.Start()
		k.RunUntil(10*sim.Millisecond + 500*sim.Microsecond)
		if m := cs.Measure(); m.Answered != 10 || m.Retransmits == 0 {
			t.Fatalf("answered %d with %d retransmits, want 10 with some", m.Answered, m.Retransmits)
		}
		if p.Pending() != 0 {
			t.Fatalf("%d requests still queued at the port", p.Pending())
		}
		if at, ok := k.NextEventTime(); ok {
			t.Fatalf("all 10 replies are in but an event is still pending at %v", at)
		}
	})
}

// TestArenaReuse: a population built over an arena that served a larger
// one, with longer frames and requests still on the link at its
// teardown, measures the same load as a fresh population: the same
// digest, latencies and reply transcript, with its table sized by its
// own request count.
func TestArenaReuse(t *testing.T) {
	run := func(a *Arena, cfg Config, until sim.Time) (*Sim, *nic.NIC, *netsim.Duplex) {
		k := sim.NewKernel(5)
		n := nic.New(cfg.Requests)
		echoServer(n)
		net := netsim.NewDuplex(k, netsim.Ethernet10("clients"))
		cs := NewIn(a, k, cfg, n, net)
		cs.Start()
		k.RunUntil(until)
		return cs, n, net
	}
	var a Arena
	big, _, net := run(&a, Config{Requests: 80, Clients: 8, PayloadWords: 9}, 2*sim.Millisecond)
	if net.AtoB.Stats.MessagesSent == net.AtoB.Stats.MessagesDelivered {
		t.Fatal("no request was on the link at teardown: the test must release frames in flight")
	}
	big.Measure()
	net.Release()
	big.Release()
	if m := big.Measure(); m.Answered == 0 || m.P50 != 0 || big.Blackout(sim.Millisecond) != 0 {
		t.Fatalf("a released population measures %+v: it must keep its counters and see no request", m)
	}

	cfg := Config{Requests: 25, Clients: 4}
	recycled, rn, _ := run(&a, cfg, sim.Second)
	fresh, fn, _ := run(new(Arena), cfg, sim.Second)
	if len(recycled.st) != 25 {
		t.Fatalf("the recycled table holds %d requests, want 25", len(recycled.st))
	}
	if recycled.StateDigest() != fresh.StateDigest() || recycled.Measure() != fresh.Measure() || rn.Replies() != fn.Replies() {
		t.Fatal("a population over a recycled arena measures differently from a fresh one")
	}
}
