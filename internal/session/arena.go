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

// arena owns every buffer whose lifetime is one cluster, so that a
// cluster built over a warm arena starts with every list at its working
// size:
//   - the kernel's events and event heap (sim);
//   - the machines' page tables, decoded pages, traces, frame tables,
//     ownership bitmaps, COW frames and decode caches, the hypervisors'
//     delivery and withheld-output buffers, the disks' written blocks
//     and write-DMA latches, the NIC shadows' frame rings, the shared
//     NIC's reply transcript, request-ID table, request log (the words
//     every port's queued frame points into) and port queues, and the
//     in-flight rings and inboxes of the mesh and transfer links
//     (platform);
//   - the client population's per-request table, request frames and
//     the scratch its latencies are sorted in (clients), the client
//     access link's rings, on a list of their own so that a retransmit
//     backlog's ring goes back to the next client link rather than to a
//     mesh link (clientLinks), and the output-commit latency samples;
//   - the replicas' delivery archives, epoch records, and the epoch
//     frames, batches and acknowledgements they exchange (replication);
//   - the writers of the cluster's blobs: Save's and a restore
//     verification's, recycled when the call returns, and AddBackup's
//     transfer blobs, held until Close because the joiner's restored
//     state may alias them. The two kinds wait on separate lists, so a
//     checkpoint does not regrow a writer sized for a transfer, nor a
//     transfer one sized for a checkpoint.
//
// An engine borrows an arena from the shelf when Boot builds its cluster
// and returns it at Close, after every buffer came back; between the two
// only the engine's goroutine touches it, so a buffer's Get or Put is a
// plain slice pop or push. Nothing readable after Close aliases it:
// Result's reply transcript is a copy, and ServiceLatencies keeps what it
// measured at Close.
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
