// Package clientsim simulates the client population of a replicated
// network service: many concurrent logical connections multiplexed over
// a netsim link into the cluster's shared NIC. It is the measurement
// half of the ROADMAP's "serve heavy traffic" north star — the paper's
// fault-tolerance discipline governs what the SERVER emits; this
// package models what the CLIENTS observe, including the failover
// blackout.
//
// Design constraints, and how they are met:
//
//   - OPEN LOOP: request arrivals follow a seeded schedule that does
//     not depend on reply timing (each arrival schedules the next), so
//     a slow or failed-over server faces the same offered load as a
//     healthy one — latency is measured against demand, not throttled
//     by it.
//   - RETRANSMIT, NEVER MASK: a client that misses its reply within
//     the timeout retransmits the SAME request id. The NIC's
//     receiver-side dedup keeps retransmissions out of the guest (the
//     reply stream stays byte-identical to the bare run), but the
//     retransmissions still cost the client real waiting time — the
//     blackout is observed in the latency tail, not hidden.
//   - EVENT-DRIVEN: the population lives entirely in kernel timer
//     callbacks (sim.Kernel.AfterArg, bound once to the request ID) and
//     link delivery hooks. It spawns no processes, so session completion
//     semantics (every spawned process has exited) are untouched, and a
//     session snapshot taken mid-load replays deterministically: all
//     client state is a function of the seed and the virtual clock.
//   - DETERMINISTIC CONTENT: request payloads are a pure function of
//     (seed, request id), never of arrival timing, so the bare and
//     replicated guests compute identical replies even though their
//     timing differs.
package clientsim

import (
	"hash/fnv"
	"math/rand"
	"slices"

	"repro/internal/netsim"
	"repro/internal/nic"
	"repro/internal/obs"
	"repro/internal/sim"
)

// Config parameterizes the client population.
type Config struct {
	// Clients is the number of concurrent logical connections the
	// requests are multiplexed over (round-robin).
	Clients int
	// Requests is the number of distinct requests to issue. It must
	// equal the guest server workload's Ops or the run never completes.
	Requests int
	// PayloadWords is the number of payload words per request frame
	// (the request id is carried separately; default 4).
	PayloadWords int
	// Start is the virtual time of the first arrival (default 200 µs,
	// past guest boot).
	Start sim.Time
	// MeanGap is the open-loop mean inter-arrival time (default 50 µs).
	MeanGap sim.Time
	// Timeout is the client retransmission timeout (default 2 ms).
	Timeout sim.Time
}

func (c Config) withDefaults() Config {
	if c.Clients == 0 {
		c.Clients = 64
	}
	if c.PayloadWords == 0 {
		c.PayloadWords = 4
	}
	if c.Start == 0 {
		c.Start = 200 * sim.Microsecond
	}
	if c.MeanGap == 0 {
		c.MeanGap = 50 * sim.Microsecond
	}
	if c.Timeout == 0 {
		c.Timeout = 2 * sim.Millisecond
	}
	return c
}

// reqState tracks one logical request from first transmission to the
// client-observed reply arrival.
type reqState struct {
	client   int
	firstAt  sim.Time   // first transmission
	attempts uint32     // transmissions so far
	replyAt  sim.Time   // client-side reply arrival (0 = still waiting)
	timer    sim.Handle // the pending retransmission timer (the newest arm)
}

// Stats summarizes the population's activity.
type Stats struct {
	Issued      int    // distinct requests sent so far
	Answered    int    // requests whose reply reached the client
	Retransmits uint64 // retransmissions sent
}

// Sim is the client population. Create with New, then Start once the
// simulation is wired; everything after that is event-driven.
type Sim struct {
	k    *sim.Kernel
	cfg  Config
	n    *nic.NIC
	req  *netsim.Link // clients -> NIC (real FIFO serialization)
	rep  *netsim.Link // NIC -> clients (reply-direction cost model)
	rng  *rand.Rand
	st   []reqState
	stat Stats

	// arriveFn and timeoutFn are arrive and timeout bound once, so that
	// scheduling one with its request ID allocates nothing.
	arriveFn, timeoutFn func(uint64)
	// free holds request frames back from the NIC: a frame is taken when
	// a request is sent and returned once Ingress has copied it. made is
	// every frame the population owns, idle or on the link.
	free, made []*request
	// lat is the scratch Measure sorts latencies in.
	lat []sim.Time
	// arena lends st, free, made, lat and rng until Release.
	arena *Arena
}

// request is one request frame on the access link, [id, payload...].
// The population owns it from send until Ingress has copied it.
type request struct{ words []uint32 }

// Arena owns the buffers of the populations built over it (NewIn): the
// per-request table, the request frames and their free list, Measure's
// scratch and the random stream, re-seeded for each population. Release
// hands them back, every frame idle again, and the next population the
// arena serves starts with them at the size the last one grew them to. A
// population takes them whole. It has one owner at a time and no lock.
type Arena struct {
	st         []reqState
	free, made []*request
	lat        []sim.Time
	rng        *rand.Rand
}

// New wires a client population to the shared NIC over a duplex client
// access link, over a private arena. net.AtoB carries requests (its
// OnDeliver hook is taken over); net.BtoA prices the reply direction.
func New(k *sim.Kernel, cfg Config, n *nic.NIC, net *netsim.Duplex) *Sim {
	return NewIn(new(Arena), k, cfg, n, net)
}

// NewIn is New over an arena: the population's per-request table,
// request frames and scratch come from a and go back to it at Release.
// The table is cleared and sliced to exactly cfg.Requests.
func NewIn(a *Arena, k *sim.Kernel, cfg Config, n *nic.NIC, net *netsim.Duplex) *Sim {
	cfg = cfg.withDefaults()
	st := a.st
	if cap(st) < cfg.Requests {
		st = make([]reqState, cfg.Requests)
	} else {
		st = st[:cfg.Requests]
		clear(st)
	}
	s := &Sim{
		k: k, cfg: cfg, n: n,
		req: net.AtoB, rep: net.BtoA,
		st: st, free: a.free, made: a.made, lat: a.lat[:0], rng: a.rng,
		arena: a,
	}
	*a = Arena{}
	if s.rng == nil {
		s.rng = k.NewRand("clientsim")
	} else {
		s.rng.Seed(k.RandSeed("clientsim"))
	}
	s.arriveFn = func(id uint64) { s.arrive(uint32(id)) }
	s.timeoutFn = func(id uint64) { s.timeout(uint32(id)) }
	s.req.OnDeliver = s.ingress
	n.OnTx = s.reply
	return s
}

// Start schedules the first arrival. Call once, at boot.
func (s *Sim) Start() {
	if s.cfg.Requests == 0 {
		return
	}
	s.k.At(s.cfg.Start, func() { s.arrive(1) })
}

// Config returns the population's configuration (defaults applied).
func (s *Sim) Config() Config { return s.cfg }

// Stats returns the population's counters.
func (s *Sim) Stats() Stats { return s.stat }

// Release hands the population's per-request table, request frames and
// scratch back to its arena, the frames still on the access link
// included. Call only on teardown, once the simulation kernel is down:
// afterwards the population keeps its Stats, and Measure, Blackout and
// StateDigest see no request.
func (s *Sim) Release() {
	a := s.arena
	if a == nil {
		return // released already
	}
	a.st, a.lat, a.made, a.rng = s.st[:cap(s.st)], s.lat[:0], s.made, s.rng
	a.free = append(s.free[:0], s.made...)
	s.st, s.lat, s.free, s.made, s.rng, s.arena = nil, nil, nil, nil, nil, nil
}

// frame builds request id's frame, [id, payload words...], in a pooled
// request: each payload word is a pure mix of (kernel seed, id, index).
func (s *Sim) frame(id uint32) *request {
	var r *request
	if n := len(s.free); n > 0 {
		r = s.free[n-1]
		s.free = s.free[:n-1]
	} else {
		r = new(request)
		s.made = append(s.made, r)
	}
	words := slices.Grow(r.words[:0], 1+s.cfg.PayloadWords)[:1+s.cfg.PayloadWords]
	r.words = words
	words[0] = id
	x := uint64(s.k.Seed())*0x9E3779B97F4A7C15 + uint64(id)
	for i := 1; i < len(words); i++ {
		x ^= x >> 33
		x *= 0xFF51AFD7ED558CCD
		x ^= x >> 29
		words[i] = uint32(x)
	}
	return r
}

// arrive issues request id (open loop: the NEXT arrival is scheduled
// here, independent of any reply).
func (s *Sim) arrive(id uint32) {
	i := int(id) - 1
	s.st[i].client = i % s.cfg.Clients
	s.st[i].firstAt = s.k.Now()
	s.stat.Issued++
	s.send(id)
	if int(id) < s.cfg.Requests {
		// Uniform in [MeanGap/2, 3*MeanGap/2): open-loop jitter drawn
		// from the population's own derived stream.
		gap := s.cfg.MeanGap/2 + sim.Time(uint64(s.rng.Int63())%uint64(s.cfg.MeanGap))
		s.k.AfterArg(gap, s.arriveFn, uint64(id+1))
	}
}

// send transmits request id over the access link and arms the
// retransmission timer.
func (s *Sim) send(id uint32) {
	i := int(id) - 1
	s.st[i].attempts++
	if s.st[i].attempts > 1 {
		s.stat.Retransmits++
	}
	r := s.frame(id)
	s.req.Send(r, 4*len(r.words))
	s.st[i].timer = s.k.AfterArg(s.cfg.Timeout, s.timeoutFn, uint64(id))
}

// timeout retransmits request id if its reply has not been emitted.
func (s *Sim) timeout(id uint32) {
	if s.st[int(id)-1].replyAt != 0 {
		return
	}
	s.send(id)
}

// ingress delivers one request frame into the shared NIC and takes the
// frame back: Ingress has copied what it keeps. A duplicate of an
// already-answered request is answered from the NIC's reply log — the
// environment retransmitting a reply the guest already produced.
func (s *Sim) ingress(m netsim.Message) {
	r := m.Payload.(*request)
	if reply, _ := s.n.Ingress(r.words); reply != nil {
		s.reply(reply)
	}
	s.free = append(s.free, r)
}

// reply observes one emitted (or replayed) reply frame and records the
// client-side arrival: emission time plus the reply direction's
// idle-link transfer cost. First arrival wins; later redeliveries of
// the same reply are ignored. words belongs to the NIC and is read only
// during the call.
func (s *Sim) reply(words []uint32) {
	if len(words) == 0 {
		return
	}
	id := int(words[0])
	if id < 1 || id > len(s.st) {
		return
	}
	st := &s.st[id-1]
	if st.replyAt != 0 {
		return
	}
	st.replyAt = s.k.Now() + s.rep.TransferTime(4*len(words))
	// Only the newest arm can be pending (a re-send happens only from the
	// previous timer firing); answered, it would fire as a no-op, so it
	// leaves the event heap now instead of in Timeout.
	st.timer.Cancel()
	s.stat.Answered++
}

// Measure computes the latency distribution over answered requests and
// the population's counters (virtual time; no commit quantiles, which
// are the replication layer's).
func (s *Sim) Measure() obs.ServiceLatencies {
	lat := s.lat[:0]
	for i := range s.st {
		if s.st[i].replyAt != 0 {
			lat = append(lat, s.st[i].replyAt-s.st[i].firstAt)
		}
	}
	slices.Sort(lat)
	s.lat = lat
	m := obs.ServiceLatencies{
		Requests:    s.stat.Issued,
		Answered:    s.stat.Answered,
		Retransmits: s.stat.Retransmits,
	}
	if len(lat) == 0 {
		return m
	}
	pick := func(q int, of int) sim.Time {
		i := (len(lat)*q + of - 1) / of
		if i >= len(lat) {
			i = len(lat) - 1
		}
		return lat[i]
	}
	m.P50 = pick(50, 100)
	m.P99 = pick(99, 100)
	m.P999 = pick(999, 1000)
	m.Max = lat[len(lat)-1]
	return m
}

// Blackout returns the client-visible service gap around a failover at
// time at: the interval from the last reply arrival at or before it to
// the first reply arrival after it. Zero when no reply follows (or
// none preceded and none followed).
func (s *Sim) Blackout(at sim.Time) sim.Time {
	var before, after sim.Time
	after = -1
	for i := range s.st {
		r := s.st[i].replyAt
		if r == 0 {
			continue
		}
		if r <= at && r > before {
			before = r
		}
		if r > at && (after < 0 || r < after) {
			after = r
		}
	}
	if after < 0 {
		return 0
	}
	return after - before
}

// StateDigest returns a deterministic hash of the population's dynamic
// state — per-request transmission and reply watermarks — for session
// snapshot verification: a restored run must reproduce every in-flight
// connection exactly.
func (s *Sim) StateDigest() uint64 {
	h := fnv.New64a()
	var b [8]byte
	put := func(v uint64) {
		for i := range b {
			b[i] = byte(v >> (8 * i))
		}
		h.Write(b[:])
	}
	put(uint64(s.stat.Issued))
	put(uint64(s.stat.Answered))
	put(s.stat.Retransmits)
	for i := range s.st {
		put(uint64(s.st[i].firstAt))
		put(uint64(s.st[i].attempts))
		put(uint64(s.st[i].replyAt))
	}
	return h.Sum64()
}
