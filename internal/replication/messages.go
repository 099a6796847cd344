// Package replication implements the paper's replica coordination (§2,
// rules P1–P7), the revised protocol of §4.3 and the VMware-FT style
// output rule as ONE boundary engine on top of the hypervisor and the
// simulated FIFO channels.
//
// There is one engine, the Replica, and a replica's role is only its
// position: it follows whoever is upstream of it (rules P3–P5) until
// nobody is (P6/P7), then coordinates whoever is downstream (P1/P2).
// Node 0 — the boot primary — has nobody upstream and starts at the
// second half; a promoted backup arrives there through the first. The
// four values all replicas must agree on travel as one Config.
//
// The coordinating half runs a single epoch loop over a single wire
// unit, the epoch frame, which carries any subset of an epoch's
// interrupt records, [Tme_p] and [end, E]. Three
// values derived once from (Protocol, OutputCommit) — where
// acknowledgements gate, how many epochs may be in flight, and whether
// an epoch ships as partial frames inline or as one coalesced frame
// through a transmit process — place a coordinator at §2's rule P2, at
// §4.3, or at output commit (policy.go). Beneath the loop there is one
// fan-out routine, one acknowledgement intake (the link's delivery
// hook), one wait-with-liveness primitive, one list of epochs awaiting
// acknowledgement and one step that retires them. The following half
// mirrors it with one receive path and one end-of-epoch rule: drop
// suppressed output through the coordinator's release watermark, retain
// the rest as the promotion flush set.
//
// A 1-fault-tolerant virtual machine is two Replicas, each driving one
// hypervisor, joined by a netsim.Duplex. The engines guarantee:
//
//   - both virtual machines execute the same instruction sequence, with
//     each instruction having the same effect (identical per-epoch state
//     digests);
//   - while the primary's processor is alive, the backup generates no
//     interactions with the environment (I/O and console suppressed);
//   - after a primary failstop, exactly one virtual machine (the
//     promoted backup) continues interacting with the environment, and
//     the environment observes a sequence of I/O operations consistent
//     with a single processor — outstanding operations are re-driven via
//     synthesized uncertain interrupts (P7), which device semantics IO2
//     permits, and retained output is re-emitted through the devices'
//     ordinal dedup, each operation exactly once.
package replication

import (
	"repro/internal/hypervisor"
	"repro/internal/netsim"
	"repro/internal/sim"
)

// Protocol selects between the paper's two coordination variants.
type Protocol int

const (
	// ProtocolOld is §2's protocol: at every epoch boundary the primary
	// awaits acknowledgements for all messages previously sent (rule P2).
	ProtocolOld Protocol = iota
	// ProtocolNew is §4.3's revision: the boundary wait is dropped;
	// instead the primary awaits acknowledgements before any I/O
	// operation, since I/O is the only way virtual-machine state is
	// revealed to the environment.
	ProtocolNew
)

// String names the protocol as in Table 1.
func (p Protocol) String() string {
	if p == ProtocolOld {
		return "old"
	}
	return "new"
}

// SyncEpoch is one epoch's replay record inside a syncMsg: exactly what
// the (new) primary delivered at that epoch's boundary, to be applied
// verbatim by a lagging backup.
type SyncEpoch struct {
	Epoch  uint64
	Tme    uint32                 // the clock base shipped for the next epoch
	Ints   []hypervisor.Interrupt // full delivery list, in order
	Digest uint64                 // pre-delivery state digest
	Halted bool
}

// epochHead is the header of an epoch frame, the one wire unit of the
// coordinator's stream. A frame carries any subset of an epoch's three
// parts: interrupt records (P1's [E, Int], in Recs), the clock (P2's
// [Tme_p]) and the end marker (P2's [end, E]). Shipped inline the parts
// travel as partial frames — one per captured interrupt, one for Tme,
// one for End, each the size and at the instant of the paper's message —
// and through the transmit process as one coalesced frame.
type epochHead struct {
	Seq   uint64 // coordinator-assigned sequence, acknowledged by backups (P4)
	Epoch uint64
	// IntIndex is the per-epoch capture index of Recs[0]; record i files
	// under IntIndex+i, so a re-sent record dedupes.
	IntIndex uint32
	HasTme   bool
	Tme      uint32
	// The remaining fields are the end marker's.
	HasEnd bool
	Digest uint64 // pre-delivery state digest (divergence detection)
	Halted bool
	// Cut is the absolute guest-instruction coordinate the epoch ended
	// at. Every replica must choose the same cut (output-triggered
	// boundaries make that a property worth checking); the backup
	// verifies its own coordinate against this.
	Cut uint64
	// Released/HaveReleased is the coordinator's output-release
	// watermark: environment output through epoch Released has been
	// emitted. Backups drop their suppressed copies up to it and retain
	// the rest as the promotion flush set.
	Released     uint64
	HaveReleased bool
}

// epochFrame is the pooled wire representation of (part of) one epoch.
type epochFrame = netsim.Frame[epochHead, hypervisor.Interrupt]

// epochBatch is a pooled second-level coalescing unit: when the transmit
// queue has a backlog (the guest produced epoch boundaries faster than
// the controller's per-message set-up cost can ship them), every queued
// epoch frame is folded into ONE wire message, so the set-up cost is
// paid once per batch instead of once per epoch. Self-clocking: a
// backlog only forms when frames outpace the link, and batching then
// collapses it — the replication stream never bufferbloats behind the
// controller.
type epochBatch = netsim.Frame[struct{}, *epochFrame]

// addRec appends one interrupt record to a frame, charging its
// environment payload to the frame's wire size (an 8 KiB disk read
// becomes the paper's 9-frame transfer; Tme and End ride the link
// frame's own header and cost nothing).
func addRec(f *epochFrame, i hypervisor.Interrupt) {
	f.Recs = append(f.Recs, i)
	f.Size += i.WireSize()
}

// ack is P4's acknowledgement: Head is the highest sequence number
// received. A backup sends it in a pooled message (Replica.sendAck) and
// the coordinator's intake releases it, so acknowledging allocates
// nothing.
type ack = netsim.Frame[uint64, struct{}]

// syncMsg is sent by a freshly promoted backup to lower-priority backups
// (the t-fault-tolerant generalization): a replay of the
// delivered-interrupt history so the remaining replicas can follow the
// new primary's stream verbatim.
type syncMsg struct {
	Seq    uint64
	Epochs []SyncEpoch
}

// wireSize estimates the payload byte size for the link timing model.
func (m syncMsg) wireSize() int {
	n := 0
	for _, e := range m.Epochs {
		n += 64
		for _, i := range e.Ints {
			n += i.WireSize()
		}
	}
	return n
}

// Stats aggregates protocol activity for an engine.
type Stats struct {
	Epochs          uint64
	MessagesSent    uint64
	BytesSent       uint64
	AcksReceived    uint64
	AckWaits        uint64   // number of blocking ack waits
	AckWaitTime     sim.Time // total virtual time spent awaiting acks
	IOGateWaits     uint64   // §4.3: waits at the before-I/O gate
	IOGateWaitTime  sim.Time
	IntsForwarded   uint64   // [E, Int] messages (primary)
	IntsReceived    uint64   // (backup)
	Divergences     uint64   // digest mismatches detected
	PeerTimeouts    uint64   // peers excluded by the ack-liveness timeout
	PromotedAtEpoch uint64   // backup: epoch at which failover occurred
	PromotedAtTime  sim.Time // backup: virtual time of promotion
	Promoted        bool
	UncertainSynth  uint64 // P7 uncertain interrupts synthesized
	OutputsReleased uint64 // output-commit: deferred operations released
}
