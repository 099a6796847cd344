package hypervisor

import (
	"repro/internal/isa"
	"repro/internal/sim"
)

// Busy guests: chunks run ahead of their dispatches. A guest that computes
// runs chunk after chunk of chunkSize instructions, and each chunk is a
// Run, a sleep of its instructions' time, a device poll (P1 capture) and a
// wake. The wakes and polls are the simulation's; the Runs need not be
// one per chunk. Between epoch boundaries the guest's machine is a closed
// deterministic machine — interrupts reach the virtual machine only at
// boundaries (P2/P5) — so what a chunk does depends on the machine alone.
// Two things write the machine: event callbacks (a disk's completion DMA,
// a device raising its line) and this hypervisor's own dispatches. Nothing
// else reads it inside the kernel loop: Snapshot reads guestInstr and
// halted, which stay accounted chunk by chunk.
//
// So once a chunk has ended whole and on no trap, phasePoll hands the
// loop to phaseAhead, where runAhead runs in one Run every whole chunk the
// chunked loop would start strictly before the kernel's next callback
// (Kernel.NextCallback, which also stops at a RunUntil bound + 1) and
// within the epoch. handOut then gives them out one at a time, each with
// its own sleep, poll (phaseAheadPoll) and wake. A chunk that ends on a
// trap never reaches these phases: the trap path is the chunked loop's,
// and costs what it did. The kernel's
// (time, seq) dispatch sequence is the chunked loop's by construction;
// only the machine is ahead of it, and Run(a) then Run(b) leaves it as
// Run(a+b) does (TLB recency as order). A callback that writes the machine
// was scheduled before the run ahead — by this hypervisor's own dispatch
// (a disk start's completion), at boot (console input), or by another
// callback (a client request's delivery to the NIC) — so it lies at or
// past the bound, and the poll that first sees its line comes after the
// last chunk handed out. The rules that keep it exact:
//
//   - No run ahead under a stop check (Kernel.MayStop: a RunUntil
//     predicate or a cancellable wait). The check stops the kernel at
//     another process's dispatch, which no callback foretells, and a pause
//     there would find the machine ahead of its accounted chunks.
//   - No run ahead while a deferred device start is withheld (output
//     commit): the acknowledgement that releases it is a callback, and the
//     started device reads or writes guest memory (a write's data latch,
//     a read's completion DMA). Every acknowledgement is scheduled when a
//     frame's delivery, itself a pending callback, reaches a backup, so no
//     rig has yet told this rule apart (TestRunAheadWithheldStartRig); it
//     stays, because it is what keeps the latch exact should a release
//     ever come unforetold.
//   - No run ahead while a raised line waits for its capture: a line that
//     rose while a capture's forwarding slept, after the poll had passed
//     its device. Its own capture forwards and sleeps at the next poll; if
//     that is the poll after a run ahead that ended on a trap at a chunk's
//     edge, the machine has taken the trap before that sleep, where the
//     chunked loop takes it after, and a pause inside the sleep sees the
//     difference (TestRunAheadEdgeRig). With no line waiting and none
//     raised before the bound, the poll after the last chunk captures
//     nothing, so a trap on its edge follows it in the same dispatch.
//   - RCTR is not rewritten while chunks are pending: it already counts
//     them.
//   - debugNoStorm turns it off: the reference arm runs chunk by chunk.
//
// The wakes are not collapsed (Proc.PromiseQuiet): between two busy
// replicas each one's next wake is loud to the other, and the train of
// wakes costs little beside the Runs it no longer pays for.

// AheadStats counts busy-guest run-ahead: the Run calls that executed
// chunks ahead of their dispatches (Runs) and the chunks handed out from
// them (Chunks). Like StormStats it is outside Stats and State: no encoded
// byte may depend on whether a chunk ran ahead.
type AheadStats struct{ Runs, Chunks uint64 }

// AheadStats returns the hypervisor's run-ahead counters.
func (hv *Hypervisor) AheadStats() AheadStats { return hv.aheadStats }

// runAhead runs the busy guest's next chunks as one Run when two or more
// of them start before the bound (see Busy guests) and phaseRun would run
// a chunk at all, arming RCTR for the rest of the epoch as phaseRun does;
// it leaves them pending for handOut and reports whether it did.
func (hv *Hypervisor) runAhead(p *sim.Proc) bool {
	now, bound := p.Now(), p.Kernel().NextCallback()
	if debugNoStorm || bound <= now || hv.M.CRs[isa.CREIRR] != 0 {
		return false
	}
	eff := hv.epochEnd()
	if hv.guestInstr >= eff || (hv.Stop != nil && hv.Stop()) {
		return false
	}
	for i := range hv.suppressed {
		if hv.suppressed[i].start {
			return false // a withheld start
		}
	}
	// Chunk i starts at now + i·c, and each must end within the epoch.
	c := sim.Time(chunkSize) * instructionTime
	chunks := min(uint64((bound-now-1)/c)+1, (eff-hv.guestInstr)/chunkSize)
	if chunks < 2 {
		return false
	}
	hv.M.CRs[isa.CRRCTR] = uint32(eff - hv.guestInstr)
	rr := hv.M.Run(chunks * chunkSize)
	r := &hv.run
	r.pending, r.ahead, r.res = true, uint32(rr.Executed), rr.StepResult
	hv.aheadStats.Runs++
	return true
}

// handOut accounts the next chunk runAhead executed and returns its
// instructions: a whole chunk, or the last one, which ends as the Run did
// (r.res) once pending is clear.
func (hv *Hypervisor) handOut() uint64 {
	r := &hv.run
	n := min(r.ahead, chunkSize)
	r.ahead -= n
	r.pending = r.ahead > 0
	hv.aheadStats.Chunks++
	return uint64(n)
}
