// Package obs is the one observation vocabulary of a replicated session:
// the events a running cluster publishes (P2 commits, P5 digest checks,
// P6/P7 promotions, §4.3 output release, and the environment's device
// activity), the point-in-time Snapshot, and the client-observed
// ServiceLatencies. The replication layer emits these Events, the
// session builds the Snapshot and ServiceLatencies, and the public hft
// package re-exports all of them as aliases; nothing converts between
// layers.
package obs

import (
	"fmt"
	"strconv"

	"repro/internal/sim"
)

// EventKind enumerates cluster events.
type EventKind int

// Cluster event kinds.
const (
	// EventEpochCommitted: the acting coordinator finished an epoch
	// boundary (Tme shipped, buffered interrupts delivered).
	EventEpochCommitted EventKind = iota
	// EventBackupEpoch: a following backup completed an epoch's
	// boundary processing, including its divergence check.
	EventBackupEpoch
	// EventPromoted: a backup detected coordinator failure and took
	// over (rules P6/P7).
	EventPromoted
	// EventDivergence: a backup's state digest disagreed with the
	// coordinator's (always absent unless deterministic replay is
	// broken — the §3.2 hazard).
	EventDivergence
	// EventFailstop: a processor failstop was injected.
	EventFailstop
	// EventLinkQualityChanged: SetLinkQuality took effect.
	EventLinkQualityChanged
	// EventDiskOp: the shared disk completed an operation.
	EventDiskOp
	// EventCompleted: the guest workload finished everywhere.
	EventCompleted
	// EventBackupAdded: AddBackup reintegrated a new backup by live
	// state transfer (Node is its index, TransferBytes the image size
	// shipped through the link).
	EventBackupAdded
	// EventTerminalInput: the environment delivered scripted terminal
	// input to the shared console (TerminalData returns the bytes;
	// Device reports "console").
	EventTerminalInput
	// EventNetRequest: the cluster's NIC accepted a distinct client
	// request frame (Request is its id; Device reports "nic").
	// Retransmissions of queued or answered requests are deduped before
	// this point and never emit.
	EventNetRequest
	// EventOutputCommitted: the output-commit engine (WithOutputCommit)
	// released an epoch's deferred environment output after its state
	// message was acknowledged by every live peer. Outputs is the number
	// of operations released, CommitLatency the generation-to-release
	// delay of the epoch's first output (zero when the epoch produced
	// none), Occupancy the epochs still awaiting acknowledgment.
	EventOutputCommitted
)

// String names the kind.
func (k EventKind) String() string {
	switch k {
	case EventEpochCommitted:
		return "epoch-committed"
	case EventBackupEpoch:
		return "backup-epoch"
	case EventPromoted:
		return "promoted"
	case EventDivergence:
		return "divergence"
	case EventFailstop:
		return "failstop"
	case EventLinkQualityChanged:
		return "link-quality"
	case EventDiskOp:
		return "disk-op"
	case EventCompleted:
		return "completed"
	case EventBackupAdded:
		return "backup-added"
	case EventTerminalInput:
		return "terminal-input"
	case EventNetRequest:
		return "net-request"
	case EventOutputCommitted:
		return "output-committed"
	}
	return fmt.Sprintf("EventKind(%d)", int(k))
}

// DiskOp describes one EventDiskOp.
type DiskOp struct {
	// Host is the adapter that issued the operation (node index).
	Host int
	// Write distinguishes writes from reads.
	Write bool
	// Block is the operated block number.
	Block uint32
	// Uncertain reports a CHECK_CONDITION completion (IO2).
	Uncertain bool
	// Committed reports whether the operation actually took effect.
	Committed bool
}

// Event is one observation from a running cluster.
type Event struct {
	// Kind discriminates the payload fields below.
	Kind EventKind
	// Time is the virtual time of the occurrence.
	Time sim.Time
	// Node is the replica concerned (primary = 0, backup i = i).
	Node int
	// Epoch is the protocol epoch concerned (epoch-scoped kinds).
	Epoch uint64

	// Tme is the clock value shipped at an epoch commit.
	Tme uint32
	// Halted marks the committing epoch as the guest's last.
	Halted bool
	// DigestMatch reports a backup's divergence-check outcome.
	DigestMatch bool
	// Uncertain is the number of uncertain interrupts synthesized at a
	// promotion (rule P7).
	Uncertain int
	// Digests carries the mismatched state digests of a divergence:
	// coordinator's, then the local one.
	Digests [2]uint64
	// Disk describes a disk operation.
	Disk DiskOp
	// TransferBytes is the state-transfer image size of a backup-added
	// event.
	TransferBytes uint64
	// Request is the request id of an EventNetRequest.
	Request uint32
	// Outputs is the number of deferred operations an
	// EventOutputCommitted released; CommitLatency the delay from the
	// epoch's first output to the release; Occupancy the epochs still
	// in the acknowledgment window afterwards.
	Outputs       int
	CommitLatency sim.Time
	Occupancy     int

	// disk is an EventDiskOp's shared-disk index; see Device.
	disk int
	// termData carries a terminal-input event's bytes; see TerminalData.
	termData string
}

// DiskOpEvent is shared disk disk's completion of op, observed at its
// issuing node.
func DiskOpEvent(disk int, op DiskOp) Event {
	return Event{Kind: EventDiskOp, Node: op.Host, Disk: op, disk: disk}
}

// TerminalInputEvent is the console's delivery of data while node acts.
func TerminalInputEvent(node int, data string) Event {
	return Event{Kind: EventTerminalInput, Node: node, termData: data}
}

// Device returns the stable device identifier an event concerns:
// "disk0", "disk1", ... for EventDiskOp, "console" for
// EventTerminalInput, "nic" for EventNetRequest, and "" for events that
// are not device-scoped.
func (e Event) Device() string {
	switch e.Kind {
	case EventDiskOp:
		return "disk" + strconv.Itoa(e.disk)
	case EventTerminalInput:
		return "console"
	case EventNetRequest:
		return "nic"
	}
	return ""
}

// TerminalData returns the input bytes of an EventTerminalInput ("" for
// other kinds).
func (e Event) TerminalData() string { return e.termData }

// String renders the event compactly.
func (e Event) String() string {
	switch e.Kind {
	case EventEpochCommitted:
		return fmt.Sprintf("[%v] node%d epoch %d committed (tme=%d halted=%v)", e.Time, e.Node, e.Epoch, e.Tme, e.Halted)
	case EventBackupEpoch:
		return fmt.Sprintf("[%v] node%d epoch %d checked (match=%v)", e.Time, e.Node, e.Epoch, e.DigestMatch)
	case EventPromoted:
		return fmt.Sprintf("[%v] node%d PROMOTED at epoch %d (%d uncertain synthesized)", e.Time, e.Node, e.Epoch, e.Uncertain)
	case EventDivergence:
		return fmt.Sprintf("[%v] node%d DIVERGED at epoch %d (%x != %x)", e.Time, e.Node, e.Epoch, e.Digests[0], e.Digests[1])
	case EventFailstop:
		return fmt.Sprintf("[%v] node%d failstopped", e.Time, e.Node)
	case EventLinkQualityChanged:
		return fmt.Sprintf("[%v] link quality changed", e.Time)
	case EventDiskOp:
		op := "read"
		if e.Disk.Write {
			op = "write"
		}
		return fmt.Sprintf("[%v] disk %s block %d by node%d (uncertain=%v)", e.Time, op, e.Disk.Block, e.Disk.Host, e.Disk.Uncertain)
	case EventCompleted:
		return fmt.Sprintf("[%v] workload completed (acting node%d)", e.Time, e.Node)
	case EventBackupAdded:
		return fmt.Sprintf("[%v] node%d JOINED after epoch %d (%d-byte state transfer)", e.Time, e.Node, e.Epoch, e.TransferBytes)
	case EventTerminalInput:
		return fmt.Sprintf("[%v] terminal input %q", e.Time, e.termData)
	case EventNetRequest:
		return fmt.Sprintf("[%v] net request %d accepted", e.Time, e.Request)
	case EventOutputCommitted:
		return fmt.Sprintf("[%v] node%d epoch %d output committed (%d ops, latency %v, %d in flight)",
			e.Time, e.Node, e.Epoch, e.Outputs, e.CommitLatency, e.Occupancy)
	}
	return fmt.Sprintf("[%v] %s", e.Time, e.Kind)
}

// Snapshot is a point-in-time view of a running (or completed) cluster.
type Snapshot struct {
	// Now is the virtual time of the observation.
	Now sim.Time
	// Booted reports whether the simulation has been constructed.
	Booted bool
	// Done reports whether the guest workload has completed.
	Done bool
	// Nodes is the replica count (primary + backups).
	Nodes int
	// Acting is the node currently interacting with the environment
	// (0 until a failover, then the promoted backup's index).
	Acting int
	// Epochs is the acting coordinator's committed epoch count.
	Epochs uint64
	// Commits is the cumulative count of acting-coordinator epoch
	// commits since boot — the session's replayable pause coordinate.
	// Unlike Epochs it never resets across failovers: a promoted
	// backup's first commit continues the sequence, so "commit #N"
	// names the same kernel state on every replay.
	Commits uint64
	// GuestInstructions is the acting node's retired instruction count.
	GuestInstructions uint64
	// Promoted reports whether any failover has occurred.
	Promoted bool
	// Halted reports whether the acting node's guest has halted.
	Halted bool
	// Protocol counters, summed over every engine that has acted.
	MessagesSent         uint64
	BytesSent            uint64
	AcksReceived         uint64
	IntsForwarded        uint64
	Divergences          uint64
	UncertainSynthesized uint64
	// PeersExcluded counts replicas a coordinator dropped from its
	// acknowledgement gates after prolonged ack silence (the liveness
	// backstop, 10x the detect timeout). Nonzero means the replica set
	// is effectively smaller than configured: a subsequent coordinator
	// failstop in that state can lose the computation.
	PeersExcluded uint64
	// Environment counters.
	DiskOps       uint64
	DiskUncertain uint64
	// Console is the environment-visible console transcript so far.
	Console string
	// Network-service counters (zero without WithClientLoad):
	// NetRequests counts distinct requests issued by the client
	// population, NetAnswered those whose reply reached a client, and
	// NetRetransmits the duplicate transmissions its timeouts forced.
	NetRequests    int
	NetAnswered    int
	NetRetransmits uint64
}

// ServiceLatencies is the client-observed latency distribution of a
// cluster's simulated client population (virtual time).
type ServiceLatencies struct {
	// Requests/Answered count distinct requests issued and replies
	// that reached a client; Retransmits counts duplicate transmissions
	// forced by the timeout.
	Requests    int
	Answered    int
	Retransmits uint64
	// P50/P99/P999/Max are latency quantiles over answered requests.
	P50  sim.Time
	P99  sim.Time
	P999 sim.Time
	Max  sim.Time
	// CommitP50/CommitP99 are output-commit latency quantiles — virtual
	// time from an epoch's first deferred environment output to its
	// release on acknowledgment. Zero unless WithOutputCommit is on and
	// at least one epoch released output.
	CommitP50 sim.Time
	CommitP99 sim.Time
}
