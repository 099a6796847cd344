// Package nic models a virtual network adapter on the generic device
// layer — the step from "replicated virtual machine" to "fault-tolerant
// network service". Like the console and the dual-ported disks, the NIC
// is ONE shared environment object (the network the clients live on)
// with a Port per processor, and the paper's I/O discipline applies at
// frame granularity:
//
//   - TX (guest output): the guest assembles a reply frame word by word
//     into the adapter's transmit buffer and rings a doorbell to emit
//     it. Every TX store is an environment OUTPUT (device.EffectOutput):
//     under replication only the I/O-active hypervisor's stores reach
//     the shared adapter — a backup suppresses and records its own —
//     and each store carries an output ordinal so a promoted backup's
//     re-emission of the failover epoch's suppressed stores is
//     deduplicated by high-water mark. Because the transmit buffer and
//     the watermark live in the SHARED adapter (there is one acting
//     writer at a time), a frame assembled half by the dead coordinator
//     and half by its successor is emitted exactly once, bit-identical
//     to the unreplicated run.
//
//   - RX (environment input): request frames arriving from the client
//     population get a global sequence number and land in every port's
//     pending queue, raising each host's interrupt line. The I/O-active
//     hypervisor captures pending frames as completion records (rule
//     P1) and forwards them in the epoch stream; every replica applies
//     them at the boundary, consuming its own port through the record's
//     watermark. After a failover, rule P7's generalization drains the
//     promoted port's still-pending frames — requests the environment
//     delivered but no replica consumed are redelivered, not lost.
//
//   - EXACTLY-ONCE requests: clients retransmit on timeout (they must
//     observe a failover blackout, not mask it), so the adapter dedups
//     arriving frames by request ID the way any reliable transport's
//     receiver does. A retransmission of an already-answered request is
//     answered from the reply log without involving the guest; a
//     retransmission of a queued request is dropped. The guest
//     therefore serves each logical request exactly once, and the reply
//     transcript of a replicated run is byte-identical to the bare
//     run's.
package nic

import (
	"encoding/binary"
	"hash/fnv"

	"repro/internal/free"
)

// Register offsets (word registers within the NIC window).
const (
	RegTxData     uint32 = 0x00 // write: append payload word to the TX frame
	RegTxDoorbell uint32 = 0x04 // write: emit TX frame of <value> words
	RegStatus     uint32 = 0x08 // read: bit0 TX ready (always), bit1 RX frame pending
	RegRxData     uint32 = 0x0C // read: pop next word of the head RX frame
	RegRxLen      uint32 = 0x10 // read: words remaining in the head RX frame
	RegRxSeq      uint32 = 0x14 // read: global sequence of the head RX frame
	RegRxConsume  uint32 = 0x18 // write: retire RX frames with sequence <= value
	RegOutSeq     uint32 = 0x1C // write: output ordinal for the NEXT TX store

	// Window is the size of the NIC register bank.
	Window uint32 = 0x20
)

// Status register bits.
const (
	StatusTxReady uint32 = 1 << 0 // transmit buffer always accepts
	StatusRxAvail uint32 = 1 << 1 // a complete RX frame is pending
)

// popsOnRead is the adapter's one purity rule: a load of RegRxData pops
// the head frame's next word; every other register reads without side
// effect. Port.MMIOPure (a bare machine's loads) and Shadow.PureLoad (a
// hypervisor's) both answer from it.
func popsOnRead(off uint32) bool { return off == RegRxData }

// frame is one framed message with its global RX sequence number (TX
// frames carry seq 0; they are logged, not queued).
type frame struct {
	seq   uint32
	words []uint32
}

// Stats counts shared-adapter activity.
type Stats struct {
	// Requests is the number of distinct request frames accepted.
	Requests uint64
	// Retransmits is the number of duplicate request frames suppressed
	// (client retransmissions during a blackout, mostly).
	Retransmits uint64
	// Replayed counts retransmissions answered from the reply log
	// (request already served; the guest is not involved again).
	Replayed uint64
	// Refused counts frames whose request ID lies outside the client
	// population (0, or above it): they reach no port and no table.
	Refused uint64
	// TxFrames is the number of frames the guest emitted.
	TxFrames uint64
	// TxWords counts payload words across all emitted frames.
	TxWords uint64
}

// NIC is the SHARED network environment: one client-facing wire, one
// reply transcript, multi-ported like the paper's dual-ported disk via
// Port. All mutable state that must survive a processor failstop —
// the partially-assembled TX frame, the output-ordinal watermark, the
// request dedup table, the reply log — lives here, on the environment
// side of the I/O Device Accessibility Assumption.
type NIC struct {
	Stats Stats

	// txBuf is the transmit frame being assembled by the acting
	// writer's RegTxData stores (shared: a successor resumes exactly
	// where the dead coordinator's last deduplicated store left off).
	txBuf []uint32

	// highWater is the output-ordinal dedup watermark: a tagged TX
	// store with ordinal <= highWater is a retransmission (a promoted
	// backup re-emitting the failover epoch's suppressed output) and is
	// dropped.
	highWater uint32

	// tx is the reply transcript: every emitted frame, length-prefixed,
	// little-endian. Byte-compared between bare and replicated runs.
	tx []byte

	// reqs is the request-ID table, one word per ID of the client
	// population (request id at reqs[id-1]). Bit 0 (reqSeen) marks an
	// accepted request, queued or answered. The rest, when nonzero, is
	// one more than the word offset in tx of the last reply frame the
	// guest emitted for the ID, so a retransmission of an answered
	// request is served from the transcript.
	reqs []uint32
	// replay is the buffer a replayed reply is decoded into.
	replay []uint32
	// log holds the words of every accepted request frame, the words
	// each port's queued frame points into.
	log requestLog
	// arena lends tx, reqs, log and every port's queue until Release.
	arena *Arena

	nextSeq uint32 // RX frame sequence numbers assigned so far
	ports   []*Port

	// OnIngress, when set, observes every accepted request frame as it
	// is delivered to the ports (session event streams).
	OnIngress func(seq uint32, words []uint32)
	// OnTx, when set, observes every emitted frame (the client
	// simulator's reply path). words is the adapter's own buffer, valid
	// only during the call.
	OnTx func(words []uint32)
}

// reqSeen is the accepted bit of a request-ID table entry.
const reqSeen = 1

// Arena owns the buffers of the adapters built over it (NewIn) — an
// adapter's reply transcript, request-ID table, request log and its
// ports' queues — and the shadows built over it (NewShadowIn), each
// whole with its frame ring. Release hands them back, and the next
// adapter or shadow the arena serves starts with them at the size the
// last one grew them to. An adapter takes the arena's adapter buffers
// whole, so a second adapter built while the first still runs grows its
// own. It has one owner at a time and no lock.
type Arena struct {
	shadows free.List[*Shadow] // released shadows, frame rings attached
	fifos   free.List[[]frame] // ports' pending queues
	tx      []byte
	reqs    []uint32
	chunks  [][]uint32 // the request log's chunks
}

// New returns an idle network adapter serving a client population that
// numbers its requests 1..requests, over a private arena.
func New(requests int) *NIC { return NewIn(new(Arena), requests) }

// NewIn is New over an arena: the adapter's transcript, request-ID
// table, request log and port queues come from a and go back to it at
// Release. The table is cleared and sliced to exactly requests, so an
// arena that served a larger population refuses what this one would.
func NewIn(a *Arena, requests int) *NIC {
	requests = max(requests, 0)
	reqs := a.reqs
	if cap(reqs) < requests {
		reqs = make([]uint32, requests)
	} else {
		reqs = reqs[:requests]
		clear(reqs)
	}
	n := &NIC{tx: a.tx[:0], reqs: reqs, log: requestLog{chunks: a.chunks}, arena: a}
	a.tx, a.reqs, a.chunks = nil, nil, nil
	return n
}

// Release hands the adapter's transcript, request-ID table, request log
// and every port's queue back to its arena. Call only on teardown, once
// no port will be read again: afterwards the adapter keeps its Stats,
// and Replies is empty.
func (n *NIC) Release() {
	a := n.arena
	if a == nil {
		return // released already
	}
	for _, p := range n.ports {
		if cap(p.fifo) > 0 {
			a.fifos.Put(p.fifo[:0])
		}
		p.fifo = nil
	}
	a.tx, a.reqs, a.chunks = n.tx[:0], n.reqs[:cap(n.reqs)], n.log.chunks
	n.tx, n.reqs, n.log, n.arena = nil, nil, requestLog{}, nil
}

// NewPort attaches one processor's endpoint. irq (optional) raises the
// host's external interrupt line when a frame arrives.
func (n *NIC) NewPort(irq func()) *Port {
	p := &Port{n: n, irq: irq}
	p.fifo, _ = n.arena.fifos.Get()
	n.ports = append(n.ports, p)
	return p
}

// logChunk is the word capacity of one request-log chunk (16 KiB).
const logChunk = 4096

// requestLog is an append-only log of request words in chunks. A kept
// frame is a slice of one chunk, and a full chunk is never moved or
// written again, so every port's queue (and a CloneFrom copy) can hold
// a frame's words for the cluster's life without a copy of their own.
type requestLog struct {
	chunks [][]uint32 // every chunk owned; those before used are full
	used   int        // chunks in use; the last of them is being filled
}

// keep appends words to the log and returns the log's copy, capped so
// that an append to it cannot reach the next frame.
func (l *requestLog) keep(words []uint32) []uint32 {
	if l.used == 0 || len(l.chunks[l.used-1])+len(words) > cap(l.chunks[l.used-1]) {
		if l.used == len(l.chunks) {
			l.chunks = append(l.chunks, nil)
		}
		c := l.chunks[l.used][:0]
		if cap(c) < len(words) {
			c = make([]uint32, 0, max(logChunk, len(words)))
		}
		l.chunks[l.used] = c
		l.used++
	}
	c := &l.chunks[l.used-1]
	at := len(*c)
	*c = append(*c, words...)
	return (*c)[at:len(*c):len(*c)]
}

// Ingress delivers one request frame from the client network. words[0]
// is the request ID; the rest is payload. An ID outside the population
// is refused and counted. Duplicates (client retransmissions) never
// reach a port: a duplicate of an answered request returns the logged
// reply for environment-side redelivery, a duplicate of a still-queued
// request returns nil (the original will be answered). Accepted frames
// get the next global sequence number and land in every port's pending
// queue: the adapter copies the words once, into its request log, and
// every port queues that copy. The caller keeps words; a returned reply
// is the adapter's buffer, valid until the next Ingress.
func (n *NIC) Ingress(words []uint32) (reply []uint32, accepted bool) {
	if len(words) == 0 {
		return nil, false
	}
	id := words[0]
	if id == 0 || uint64(id) > uint64(len(n.reqs)) {
		n.Stats.Refused++
		return nil, false
	}
	e := &n.reqs[id-1]
	if *e&reqSeen != 0 {
		n.Stats.Retransmits++
		if at := *e >> 1; at != 0 {
			n.Stats.Replayed++
			n.replay = n.replay[:0]
			for b := n.reply(at - 1); len(b) > 0; b = b[4:] {
				n.replay = append(n.replay, binary.LittleEndian.Uint32(b))
			}
			return n.replay, false
		}
		return nil, false
	}
	*e |= reqSeen
	n.Stats.Requests++
	n.nextSeq++
	f := frame{seq: n.nextSeq, words: n.log.keep(words)}
	for _, p := range n.ports {
		p.push(f)
	}
	if n.OnIngress != nil {
		n.OnIngress(f.seq, f.words)
	}
	return nil, true
}

// txWord appends one payload word to the shared transmit buffer,
// honoring the ordinal dedup watermark (ordinal 0 = untagged store from
// a bare machine, always applied).
func (n *NIC) txWord(ordinal, v uint32) {
	if !n.passOrdinal(ordinal) {
		return
	}
	n.txBuf = append(n.txBuf, v)
}

// txDoorbell emits the assembled frame, declared to hold v words.
func (n *NIC) txDoorbell(ordinal, v uint32) {
	if !n.passOrdinal(ordinal) {
		return
	}
	words := n.txBuf
	if int(v) < len(words) {
		words = words[len(words)-int(v):]
	}
	n.txBuf = n.txBuf[:0]
	n.Stats.TxFrames++
	n.Stats.TxWords += uint64(len(words))
	at := len(n.tx) / 4
	n.tx = appendFrame(n.tx, words)
	if len(words) > 0 && words[0] != 0 && uint64(words[0]) <= uint64(len(n.reqs)) {
		if at >= 1<<31-1 {
			panic("nic: reply transcript past 8 GiB")
		}
		e := &n.reqs[words[0]-1]
		*e = *e&reqSeen | uint32(at+1)<<1
	}
	if n.OnTx != nil {
		n.OnTx(words)
	}
}

// reply returns the words of the transcript frame at word offset at,
// little-endian.
func (n *NIC) reply(at uint32) []byte {
	b := n.tx[4*int(at):]
	return b[4 : 4+4*int(binary.LittleEndian.Uint32(b))]
}

// passOrdinal applies the output-ordinal high-water dedup (the console's
// exactly-once rule, at TX-store granularity).
func (n *NIC) passOrdinal(ordinal uint32) bool {
	if ordinal != 0 {
		if ordinal <= n.highWater {
			return false // re-emission of output the environment already saw
		}
		n.highWater = ordinal
	}
	return true
}

// appendFrame length-prefixes and appends a frame, little-endian.
func appendFrame(b []byte, words []uint32) []byte {
	b = appendU32(b, uint32(len(words)))
	for _, w := range words {
		b = appendU32(b, w)
	}
	return b
}

func appendU32(b []byte, v uint32) []byte {
	return append(b, byte(v), byte(v>>8), byte(v>>16), byte(v>>24))
}

// Replies returns the reply transcript so far: every emitted frame,
// length-prefixed, little-endian. The service-level correctness
// criterion is that this is byte-identical between a bare run and any
// replicated run — across failover, reintegration and save/restore.
func (n *NIC) Replies() string { return string(n.tx) }

// StateDigest returns a deterministic hash of the adapter's dynamic
// state: transcript, transmit buffer, watermarks, dedup and reply
// tables, and every port's pending frames (snapshot verification).
func (n *NIC) StateDigest() uint64 {
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
	// The request-ID table folds order-free, a commutative XOR of one
	// FNV-1a hash per accepted ID over the ID and its reply's words: the
	// value the dedup and reply maps it replaced folded to, which
	// checkpoints embed.
	var fold uint64
	entry := fnv.New64a()
	var id [4]byte
	for i, e := range n.reqs {
		if e&reqSeen == 0 {
			continue
		}
		entry.Reset()
		binary.LittleEndian.PutUint32(id[:], uint32(i+1))
		entry.Write(id[:])
		if at := e >> 1; at != 0 {
			entry.Write(n.reply(at - 1))
		}
		fold ^= entry.Sum64()
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

// Port is one processor's view of the network adapter: a register bank
// on the host's MMIO bus (machine.MMIOHandler semantics for its
// window).
type Port struct {
	n    *NIC
	irq  func()
	fifo []frame

	// outSeq is a pending explicit output ordinal (set by RegOutSeq,
	// consumed by the next TX store; 0 = untagged).
	outSeq uint32

	// Detached is set when the host has failstopped: arriving frames
	// stop raising its interrupt line (no interrupt reaches a dead
	// host).
	Detached bool
}

// push files one arriving frame.
func (p *Port) push(f frame) {
	p.fifo = append(p.fifo, f)
	if p.irq != nil && !p.Detached {
		p.irq()
	}
}

// consume retires pending frames with sequence <= seq.
func (p *Port) consume(seq uint32) {
	i := 0
	for i < len(p.fifo) && p.fifo[i].seq <= seq {
		i++
	}
	if i > 0 {
		rest := copy(p.fifo, p.fifo[i:])
		for j := rest; j < len(p.fifo); j++ {
			p.fifo[j] = frame{}
		}
		p.fifo = p.fifo[:rest]
	}
}

// Pending reports how many frames await consumption (tests).
func (p *Port) Pending() int { return len(p.fifo) }

// CloneFrom copies the source port's pending frames into this (empty,
// newly created) port. A port created for a reintegrated node
// (AddBackup) must start from the acting coordinator's view of the
// wire: frames the environment delivered before this port existed but
// that the replica set has not yet consumed would otherwise be
// invisible to the joiner — lost if it is later promoted. Cloning at
// creation time keeps the two ports in lockstep from here on, because
// both see the same arrivals and both retire through the same applied
// completion watermarks.
func (p *Port) CloneFrom(src *Port) {
	p.fifo = append(p.fifo[:0], src.fifo...)
}

// MMIOLoad implements machine.MMIOHandler.
func (p *Port) MMIOLoad(off uint32, size int) (uint32, error) {
	switch off {
	case RegTxData, RegTxDoorbell, RegRxConsume, RegOutSeq:
		return 0, nil
	case RegStatus:
		s := StatusTxReady
		if len(p.fifo) > 0 {
			s |= StatusRxAvail
		}
		return s, nil
	case RegRxData:
		if len(p.fifo) == 0 {
			return 0, nil
		}
		f := &p.fifo[0]
		v := f.words[0]
		f.words = f.words[1:]
		if len(f.words) == 0 {
			rest := copy(p.fifo, p.fifo[1:])
			p.fifo[rest] = frame{}
			p.fifo = p.fifo[:rest]
		}
		return v, nil
	case RegRxLen:
		if len(p.fifo) == 0 {
			return 0, nil
		}
		return uint32(len(p.fifo[0].words)), nil
	case RegRxSeq:
		if len(p.fifo) == 0 {
			return 0, nil
		}
		return p.fifo[0].seq, nil
	}
	return 0, errBadReg(off)
}

// MMIOPure implements machine.MMIOHandler (see popsOnRead).
func (p *Port) MMIOPure(off uint32) bool { return !popsOnRead(off) }

// MMIOStore implements machine.MMIOHandler.
func (p *Port) MMIOStore(off uint32, size int, v uint32) error {
	switch off {
	case RegTxData:
		ord := p.outSeq
		p.outSeq = 0
		p.n.txWord(ord, v)
		return nil
	case RegTxDoorbell:
		ord := p.outSeq
		p.outSeq = 0
		p.n.txDoorbell(ord, v)
		return nil
	case RegStatus, RegRxData, RegRxLen, RegRxSeq:
		return nil // read-only / ignored
	case RegRxConsume:
		p.consume(v)
		return nil
	case RegOutSeq:
		p.outSeq = v
		return nil
	}
	return errBadReg(off)
}

// StateDigest hashes the port's dynamic state (snapshot verification).
func (p *Port) StateDigest() uint64 {
	h := fnv.New64a()
	var b [4]byte
	put := func(vs ...uint32) {
		for _, v := range vs {
			b[0], b[1], b[2], b[3] = byte(v), byte(v>>8), byte(v>>16), byte(v>>24)
			h.Write(b[:])
		}
	}
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
	return h.Sum64()
}

type badReg uint32

func (b badReg) Error() string { return "nic: bad register offset" }

func errBadReg(off uint32) error { return badReg(off) }
