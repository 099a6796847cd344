// Package netsim models the point-to-point communication between the
// primary and backup hypervisors: FIFO message channels with a
// bandwidth/latency/segmentation cost model, in-order delivery, loss
// injection for testing, and byte accounting.
//
// The paper's prototype used a 10 Mbps Ethernet between the two HP
// 9000/720s and §4.3 models replacing it with a 155 Mbps ATM link;
// presets for both are provided. A disk-block transfer of 8 KiB over the
// Ethernet takes "9 messages for the data and 1 message for an
// acknowledgement" — with the default 1 KiB MTU an 8 KiB payload
// segments into 8 data frames plus a header frame, matching the paper.
package netsim

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"

	"repro/internal/free"
	"repro/internal/sim"
)

// Message is one hypervisor-to-hypervisor message in flight.
type Message struct {
	// Payload is the protocol-level content (owned by the replication
	// package; netsim treats it opaquely).
	Payload any
	// Size is the wire size in bytes used for the timing model.
	Size int
	// Seq is the link-assigned sequence number (FIFO order).
	Seq uint64
	// SentAt / DeliveredAt are virtual timestamps.
	SentAt      sim.Time
	DeliveredAt sim.Time
}

// LinkConfig describes one direction of a link.
type LinkConfig struct {
	// Name identifies the link in stats and rand-stream derivation.
	Name string
	// BitsPerSecond is the serialization bandwidth.
	BitsPerSecond int64
	// Latency is the propagation + interrupt-processing delay added
	// after serialization.
	Latency sim.Time
	// MTU is the maximum payload bytes per frame; larger messages are
	// segmented. Zero means 1024 (the prototype's messaging layer).
	MTU int
	// FrameOverhead is per-frame header bytes (counts against bandwidth).
	FrameOverhead int
	// PerMessageFrames is the number of extra control frames per message
	// (the paper's "+1 header"); default 1.
	PerMessageFrames int
	// SetupTime is per-message controller set-up cost paid by the sender
	// regardless of size (the paper notes I/O controller set-up time is
	// the same for Ethernet and ATM).
	SetupTime sim.Time
}

// withDefaults fills zero fields.
func (c LinkConfig) withDefaults() LinkConfig {
	if c.BitsPerSecond == 0 {
		c.BitsPerSecond = 10_000_000
	}
	if c.MTU == 0 {
		c.MTU = 1024
	}
	if c.FrameOverhead == 0 {
		c.FrameOverhead = 26 // Ethernet-ish framing
	}
	if c.PerMessageFrames == 0 {
		c.PerMessageFrames = 1
	}
	if c.Latency == 0 {
		c.Latency = 50 * sim.Microsecond
	}
	if c.SetupTime == 0 {
		c.SetupTime = 100 * sim.Microsecond
	}
	return c
}

// Ethernet10 returns the prototype's 10 Mbps Ethernet (one direction).
func Ethernet10(name string) LinkConfig {
	return LinkConfig{
		Name:          name,
		BitsPerSecond: 10_000_000,
		Latency:       50 * sim.Microsecond,
		MTU:           1024,
		FrameOverhead: 26,
		SetupTime:     100 * sim.Microsecond,
	}
}

// ATM155 returns §4.3's 155 Mbps ATM alternative (one direction). The
// paper assumes controller set-up time matches the Ethernet's.
func ATM155(name string) LinkConfig {
	return LinkConfig{
		Name:          name,
		BitsPerSecond: 155_000_000,
		Latency:       20 * sim.Microsecond,
		MTU:           1024,
		FrameOverhead: 30, // cell tax approximated as per-KB overhead
		SetupTime:     100 * sim.Microsecond,
	}
}

// Stats counts link activity.
type Stats struct {
	MessagesSent      uint64
	MessagesDelivered uint64
	MessagesDropped   uint64
	BytesSent         uint64
	Frames            uint64
}

// Link is one direction of a FIFO channel. Sends serialize: a message
// begins transmission when the link is free, and messages arrive in send
// order after serialization + latency.
type Link struct {
	k   *sim.Kernel
	cfg LinkConfig

	// Inbox receives delivered messages; the receiving hypervisor's
	// process blocks on it.
	Inbox *sim.Queue[Message]

	// OnDeliver, when set, consumes delivered messages instead of the
	// Inbox: for event-driven environment endpoints (the client
	// population's ingress into the shared NIC) that must not hold a
	// never-exiting receiver process alive in the simulation kernel.
	OnDeliver func(Message)

	// Stats accumulates counters.
	Stats Stats

	seq      uint64
	freeAt   sim.Time // when the transmitter finishes the current frame
	lastArr  sim.Time // newest scheduled arrival (keeps FIFO timing monotonic)
	down     bool     // true after Disconnect: sends vanish silently
	dropNext int      // drop the next N messages (loss injection)

	// inflight rings sent-but-undelivered messages, consumed in FIFO
	// order (serialization is in-order, so arrival times are
	// nondecreasing). deliver is the single reusable delivery callback,
	// so Send allocates neither a closure nor an event.
	inflight sim.Ring[Message]
	deliver  func()
	arena    *Arena // where Release hands the link back
}

// Arena owns the links built over it (NewLinkIn, NewDuplexIn). A
// released link waits on the arena whole, with its in-flight ring and its
// inbox, both emptied, and the next link the arena serves is rebuilt in
// it, its rings at the size the last one grew them to; a duplex waits
// with its two links. It has one owner at a time and no lock.
type Arena struct {
	links    free.List[*Link]
	duplexes free.List[*Duplex]
}

// NewLink creates one direction of a channel owned by kernel k, over a
// private arena: its rings grow plainly.
func NewLink(k *sim.Kernel, cfg LinkConfig) *Link { return NewLinkIn(new(Arena), k, cfg) }

// NewLinkIn is NewLink over an arena: the link is one released to a,
// rebuilt with its rings, when a has one, and goes back to it at Release.
func NewLinkIn(a *Arena, k *sim.Kernel, cfg LinkConfig) *Link {
	l, _ := a.links.Get()
	return l.rebuild(a, k, cfg)
}

// rebuild makes l (a new link when nil) a fresh link of cfg on k, keeping
// its rings' storage. Its inbox is kept too when it was made under the
// same name.
func (l *Link) rebuild(a *Arena, k *sim.Kernel, cfg LinkConfig) *Link {
	cfg = cfg.withDefaults()
	if l == nil {
		l = new(Link)
	}
	inbox := l.Inbox
	if inbox != nil && l.cfg.Name == cfg.Name {
		inbox.Reset(k)
	} else {
		inbox = sim.NewQueue[Message](k, cfg.Name+".inbox")
	}
	*l = Link{k: k, cfg: cfg, Inbox: inbox, inflight: l.inflight, deliver: l.deliver, arena: a}
	if l.deliver == nil {
		l.deliver = l.deliverHead
	}
	return l
}

// Release hands the link back to its arena, dropping whatever is still
// in flight or unread; a second call before it is rebuilt does nothing.
// Call only on teardown, once the simulation kernel is down: the link
// must not be used afterwards.
func (l *Link) Release() {
	if a := l.reset(); a != nil {
		a.links.Put(l)
	}
}

// reset empties the link for its arena, keeping its name, rings, inbox
// and delivery callback, and returns the arena (nil: reset already).
func (l *Link) reset() *Arena {
	a := l.arena
	if a == nil {
		return nil
	}
	l.inflight.Reuse(l.inflight.Release())
	l.Inbox.Reset(nil)
	*l = Link{cfg: LinkConfig{Name: l.cfg.Name}, Inbox: l.Inbox, inflight: l.inflight, deliver: l.deliver}
	return a
}

// deliverHead completes delivery of the oldest in-flight message.
func (l *Link) deliverHead() {
	msg, ok := l.inflight.Pop()
	if !ok {
		panic("netsim: delivery event with no in-flight message")
	}
	// A downed link refuses NEW sends (see Send), but messages already
	// in flight still arrive: fail-stop halts the sender, it does not
	// reach out and destroy frames already on the wire. The replication
	// layer depends on this — the coordinator fans out to backups in
	// priority order, so with FIFO links and in-flight delivery the
	// promoted (lowest-priority-index) backup always holds a superset
	// of every other backup's received prefix, and its post-failover
	// stream reconciles the others. Dropping in-flight frames instead
	// lets a slow-linked backup miss an epoch a fast-linked peer saw,
	// and the two lines diverge irreconcilably.
	msg.DeliveredAt = l.k.Now()
	l.Stats.MessagesDelivered++
	if l.OnDeliver != nil {
		l.OnDeliver(msg)
		return
	}
	l.Inbox.Put(msg)
}

// Config returns the link configuration (defaults applied).
func (l *Link) Config() LinkConfig { return l.cfg }

// Frames returns how many frames a payload of n bytes occupies.
func (l *Link) frames(n int) int {
	f := l.cfg.PerMessageFrames
	for n > 0 {
		f++
		n -= l.cfg.MTU
	}
	if f == 0 {
		f = 1
	}
	return f
}

// TxTime returns the serialization time for a message of n payload bytes
// (excluding latency and setup).
func (l *Link) TxTime(n int) sim.Time {
	frames := l.frames(n)
	bits := int64(n+frames*l.cfg.FrameOverhead) * 8
	return sim.Time(bits * int64(sim.Second) / l.cfg.BitsPerSecond)
}

// TransferTime returns the full sender-observed cost of an n-byte message
// on an idle link: setup + serialization + latency.
func (l *Link) TransferTime(n int) sim.Time {
	return l.cfg.SetupTime + l.TxTime(n) + l.cfg.Latency
}

// Send enqueues a message of size bytes. It returns immediately (the
// sending hypervisor does not block on the wire); delivery is scheduled
// per the cost model. Messages sent while the link is Disconnected, or
// marked for loss injection, vanish without trace (the FIFO property is
// preserved for delivered messages).
func (l *Link) Send(payload any, size int) {
	l.Stats.MessagesSent++
	l.Stats.BytesSent += uint64(size)
	if l.down || l.dropNext > 0 {
		if l.dropNext > 0 {
			l.dropNext--
		}
		l.Stats.MessagesDropped++
		return
	}
	now := l.k.Now()
	start := now + l.cfg.SetupTime
	if l.freeAt > start {
		start = l.freeAt
	}
	tx := l.TxTime(size)
	l.freeAt = start + tx
	arrive := l.freeAt + l.cfg.Latency
	// Arrivals must be nondecreasing even if SetQuality lowered the
	// latency while earlier messages were still in flight: deliverHead
	// consumes the in-flight ring in FIFO order, so an arrival earlier
	// than a predecessor's would deliver the predecessor too soon.
	if arrive < l.lastArr {
		arrive = l.lastArr
	}
	l.lastArr = arrive
	msg := Message{Payload: payload, Size: size, Seq: l.seq, SentAt: now}
	l.seq++
	l.Stats.Frames += uint64(l.frames(size))
	l.inflight.Push(msg)
	l.k.At(arrive, l.deliver)
}

// Quality is a mid-run adjustment to a link's cost model. Zero fields
// leave the corresponding parameter unchanged.
type Quality struct {
	// BitsPerSecond replaces the serialization bandwidth.
	BitsPerSecond int64
	// Latency replaces the propagation delay.
	Latency sim.Time
	// MTU replaces the segmentation threshold.
	MTU int
	// DropNext marks the next N sends for loss (adds to any pending).
	DropNext int
}

// SetQuality degrades (or restores) the link mid-run: messages already
// serialized keep their scheduled delivery; future sends pay the new
// costs. FIFO order is preserved — a message sent after the change
// still arrives after everything sent before it, because transmission
// start is gated on freeAt.
func (l *Link) SetQuality(q Quality) {
	if q.BitsPerSecond > 0 {
		l.cfg.BitsPerSecond = q.BitsPerSecond
	}
	if q.Latency > 0 {
		l.cfg.Latency = q.Latency
	}
	if q.MTU > 0 {
		l.cfg.MTU = q.MTU
	}
	if q.DropNext > 0 {
		l.dropNext += q.DropNext
	}
}

// StateDigest returns a deterministic hash of the link's dynamic state:
// cost-model parameters (which SetQuality can change), transmitter and
// FIFO watermarks, counters, and the in-flight message metadata.
// Snapshot verification compares it between an original and a replayed
// run; payloads are opaque to netsim and are covered by the protocol
// layer's own capture.
func (l *Link) StateDigest() uint64 {
	h := fnv.New64a()
	put := func(vs ...uint64) {
		var b [8]byte
		for _, v := range vs {
			binary.LittleEndian.PutUint64(b[:], v)
			h.Write(b[:])
		}
	}
	put(uint64(l.cfg.BitsPerSecond), uint64(l.cfg.Latency), uint64(l.cfg.MTU))
	put(l.seq, uint64(l.freeAt), uint64(l.lastArr))
	flags := uint64(0)
	if l.down {
		flags |= 1
	}
	put(flags, uint64(l.dropNext))
	put(l.Stats.MessagesSent, l.Stats.MessagesDelivered, l.Stats.MessagesDropped,
		l.Stats.BytesSent, l.Stats.Frames)
	put(uint64(l.inflight.Len()))
	for i := 0; i < l.inflight.Len(); i++ {
		m := l.inflight.At(i)
		put(m.Seq, uint64(m.Size), uint64(m.SentAt))
	}
	return h.Sum64()
}

// Disconnect severs the link: in-flight and future messages are dropped.
// Used to model failstop of the sender (the paper's failure model: the
// backup sees no further messages from a failed primary).
func (l *Link) Disconnect() { l.down = true }

// Down reports whether the link has been disconnected.
func (l *Link) Down() bool { return l.down }

// DropNext makes the next n Sends vanish (loss injection for testing the
// revised protocol's lost-message window, §4.3).
func (l *Link) DropNext(n int) { l.dropNext += n }

// Duplex is a bidirectional channel between two hypervisors.
type Duplex struct {
	// AtoB carries messages from endpoint A to endpoint B; BtoA the
	// reverse.
	AtoB *Link
	BtoA *Link
}

// NewDuplex builds both directions with the same configuration (named
// name.ab / name.ba), over a private arena.
func NewDuplex(k *sim.Kernel, name string, cfg LinkConfig) *Duplex {
	return NewDuplexIn(new(Arena), k, name, cfg)
}

// NewDuplexIn is NewDuplex over an arena (see NewLinkIn): the duplex is
// one released to a, with its two links, when a has one.
func NewDuplexIn(a *Arena, k *sim.Kernel, name string, cfg LinkConfig) *Duplex {
	ab, ba := cfg, cfg
	ab.Name = fmt.Sprintf("%s.ab", name)
	ba.Name = fmt.Sprintf("%s.ba", name)
	d, ok := a.duplexes.Get()
	if !ok {
		d = new(Duplex)
	}
	d.AtoB, d.BtoA = d.AtoB.rebuild(a, k, ab), d.BtoA.rebuild(a, k, ba)
	return d
}

// Release hands the duplex back to its arena with both directions (see
// Link.Release).
func (d *Duplex) Release() {
	a := d.BtoA.reset()
	d.AtoB.reset()
	if a != nil {
		a.duplexes.Put(d)
	}
}

// DisconnectAll severs both directions.
func (d *Duplex) DisconnectAll() {
	d.AtoB.Disconnect()
	d.BtoA.Disconnect()
}
