package session

import (
	"repro/internal/clientsim"
	"repro/internal/free"
	"repro/internal/netsim"
	"repro/internal/platform"
	"repro/internal/replication"
	"repro/internal/sim"
	"repro/internal/snapshot"
)

// arena owns every struct and buffer whose lifetime is one cluster, so
// that a cluster built over a warm arena is rebuilt in the last one's
// structs, every list at its working size:
//   - the kernel's events, event heap and processes (sim);
//   - the machines — each whole, with its TLB and replacement policy,
//     bus multiplexer, frame and page tables, ownership bitmap and
//     decode cache — and their decoded pages, traces and COW frames; the
//     hypervisors, each whole with its delivery and withheld-output
//     buffers and its device table; the NIC shadows with their frame
//     rings; the disks' written blocks and write-DMA latches, the shared
//     NIC's reply transcript, request-ID table, request log (the words
//     every port's queued frame points into) and port queues; and the
//     mesh and transfer links, each whole with its in-flight ring and
//     inbox (platform);
//   - the client population's per-request table, request frames, the
//     scratch its latencies are sorted in and its random stream
//     (clients), the client access link, on a list of its own so that a
//     retransmit backlog's ring goes back to the next client link rather
//     than to a mesh link (clientLinks), and the output-commit latency
//     samples;
//   - the replicas, each whole with its epoch index, delivery archive
//     and coordinator, the epoch records, and the epoch frames, batches
//     and acknowledgements they exchange (replication);
//   - the writers of the cluster's blobs: Save's and a restore
//     verification's, recycled when the call returns, and AddBackup's
//     transfer blobs, held until Close because the joiner's restored
//     state may alias them. The two kinds wait on separate lists, so a
//     checkpoint does not regrow a writer sized for a transfer, nor a
//     transfer one sized for a checkpoint.
//
// A struct goes back at Close and is rebuilt in place by the next
// constructor over the arena (*m = Machine{...}), keeping only its
// storage. Structs go back last node first: the lists pop last in, first
// out, so the next cluster's node i is rebuilt in node i's. What stays
// readable after Close is not recycled — the engine, kernel, NIC, client
// population, disks and console — and nothing readable after Close
// aliases the arena: Result's reply transcript is a copy, and Snapshot
// and ServiceLatencies report what they measured at Close.
//
// An engine borrows an arena from the shelf when Boot builds its cluster
// and returns it at Close, after everything came back; between the two
// only the engine's goroutine touches it, so a Get or Put is a plain
// slice pop or push.
type arena struct {
	sim         sim.Arena
	platform    platform.Arena
	replication replication.Arena
	writers     free.List[*snapshot.Writer] // Save's and VerifySections'
	transfers   free.List[*snapshot.Writer] // AddBackup's
	clients     clientsim.Arena
	clientLinks netsim.Arena // the client access link's rings
	commitLats  []sim.Time   // the output-commit latency samples
}

// arenas is where idle arenas wait between clusters. Its lock is taken
// only at borrow and return, and a garbage collection never empties it.
var arenas free.Shelf[*arena]

// borrowArena takes an idle arena off the shelf, or makes one.
func borrowArena() *arena {
	if a, ok := arenas.Get(); ok {
		return a
	}
	return new(arena)
}

// Writer starts a blob as snapshot.NewWriter does, over a buffer the
// cluster's arena owns. Hand it back with Recycle once the blob it
// finished is dead (Save's output once written). A closed or unbooted
// engine has no arena: the writer is allocated plainly.
func (e *Engine) Writer(magic string) *snapshot.Writer {
	if e.arena == nil {
		return snapshot.NewWriter(magic)
	}
	return writerFrom(&e.arena.writers, magic)
}

// writerFrom starts a blob in a writer off l, or in a new one.
func writerFrom(l *free.List[*snapshot.Writer], magic string) *snapshot.Writer {
	if w, ok := l.Get(); ok {
		w.Reset(magic)
		return w
	}
	return snapshot.NewWriter(magic)
}

// Recycle hands a writer from Writer back to the cluster's arena. The
// writer, and every slice of its buffer handed out before, must not be
// used afterwards.
func (e *Engine) Recycle(w *snapshot.Writer) {
	if e.arena != nil {
		e.arena.writers.Put(w)
	}
}
