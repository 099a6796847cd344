package hypervisor

import (
	"repro/internal/isa"
	"repro/internal/machine"
	"repro/internal/sim"
)

// The poll storm: an idle guest's polls, retired ahead. A guest waiting
// for I/O spins on a device status register; every read traps (§3.2), and
// since interrupts reach the virtual machine only at epoch boundaries
// (P2/P5) and its loads are served from shadow state, nothing between two
// boundaries can change what the register reads. The machine already
// knows the instructions between two reads by heart (the run memo:
// machine/memo.go). What is left of a poll is the round trip — Run, a
// sleep of the instructions' time, the device poll, the trap's charge,
// another sleep, the emulated load — and it too is a fixed point: the
// emulation puts the machine back in the state the recalled call started
// from, so the next poll is this one again, and the one after.
//
// stormAhead stands at the head of phaseRun, behind a poll that was
// recalled and ended on a load the shadow declares pure. When the machine
// would recall the next call too it knows the whole poll in advance —
// n instructions costing a = n × InstructionTime, then one simulation
// costing b under the resident-window rule — and how many polls K the
// epoch's budget admits (the memo's rule, for every call: what remains
// must exceed n). It promises the kernel exactly that (sim.PromiseQuiet:
// until K polls from now my dispatches touch only my own state, at
// now + i(a+b) + {0, a}), and is told in return when something loud can
// next be dispatched. The j polls that end strictly before that instant
// it retires at once, in closed form — j × (n+1) instructions, j charges,
// j hits applied by the machine as one — and sleeps j(a+b) in one sleep.
//
// Why that is exact, in four lines. (1) Until the loud instant only
// promised processes are dispatched, and they touch only their own state:
// nothing can observe this hypervisor between now and the wake, and
// nothing it would have read on the way (EIRR, Stop, the shadow, the
// epoch's end) can have been written. (2) At the wake every field is what
// the j-th poll's last step leaves, so the run goes on as if it had taken
// every step. (3) The collapsed wake carries an earlier seq than the wake
// it replaces, but seq only ever breaks a tie in time, and the wake ties
// with nothing: loud occurrences lie strictly after it, and a batch is
// refused when another storming hypervisor's lattice can share an instant
// with this one's. (4) What the promise covers while no batch can be made
// — the plain polls in between, answered sim.StepQuiet — are the same
// steps the reference run takes, at the same instants.
//
// Refusals, none of which is an error: the loud bound (j = 0 — something
// loud is due within one poll, typically the other replica before it has
// promised); a lattice collision (two replicas in phase — a batch that
// cannot be collapsed exactly is not made, there is no train of no-op
// wakes instead); the budget (Poll refuses: the epoch ends before the
// poll's trap, and the poll is executed up to the boundary). There is no
// switch but the reference arm's debugNoStorm.

// debugNoStorm, when set (tests; spec.go), keeps the hypervisor side from
// retiring any wait ahead: no storm is promised or batched, and a bare
// guest's wait runs chunk by chunk (bare.go). It is the reference arm
// every storm and bare-wait test compares against, byte for byte.
var debugNoStorm bool

// StormStats counts poll-storm activity: how often a recalled pure poll
// reached the kernel with a promise (Tries), how many of those retired
// polls ahead (Batches), and how many polls that was (Polls). Like
// machine.MemoStats it is outside Stats and State — no encoded byte may
// depend on whether a poll was retired ahead — and per hypervisor.
type StormStats struct {
	Tries, Batches, Polls uint64
}

// StormStats returns the hypervisor's poll-storm counters.
func (hv *Hypervisor) StormStats() StormStats { return hv.stormStats }

// stormAhead is the storm's one step (see the file comment). p is the
// process driving the epoch, which makes the promise; remaining is the
// epoch's budget, already in RCTR. It returns the sleep that retires
// the polls it applied, or zero having applied none — then the caller
// runs the next poll step by step, quietly if r.quiet was set.
func (hv *Hypervisor) stormAhead(p *sim.Proc, remaining uint64) sim.Time {
	r := &hv.run
	m := hv.M
	if debugNoStorm || m.CRs[isa.CRITMR] != 0 || m.CRs[isa.CREIRR] != 0 {
		return 0
	}
	n, ok := m.Poll(min(chunkSize, remaining))
	if !ok {
		return 0
	}
	// The load about to be emulated again must read what the last one put
	// in Rd (the key state holds it), and the last simulation must be the
	// instruction before this one, so that every charge ahead is one rule.
	rd, v := r.res.Inst.Rd, hv.mmioLoad(r.pa-machine.MMIOBase)
	if hv.guestReg(rd) != v || !hv.residentArmed || hv.guestInstr-hv.residentAt != 1 {
		return 0
	}
	per := n + 1 // the recalled instructions and the emulated load
	a, b := sim.Time(n)*instructionTime, HSim
	resident := hv.cfg.ResidentEmulation && per <= residentWindow
	if resident {
		b = residentWork
	}
	// The i-th call ahead is recalled iff remaining − (i−1)·per > n, that
	// is iff i <= remaining/per (Poll has just said so for the first;
	// chunkSize > n with it).
	polls := remaining / per
	if a+b <= 0 {
		return 0 // a free poll has no lattice to promise
	}
	now := p.Now()
	loud, clear := p.PromiseQuiet(now+sim.Time(polls)*(a+b), a, b)
	hv.stormStats.Tries++
	r.quiet = true
	if !clear || loud <= now {
		return 0
	}
	j := min(polls, uint64(loud-now-1)/uint64(a+b))
	if j == 0 {
		return 0
	}

	m.ReplayHits(j)
	instr := j * per
	m.CRs[isa.CRRCTR] = uint32(remaining - instr + 1) // as the last call leaves it: its budget less n
	hv.setGuestReg(rd, v)
	m.PC += 4
	hv.guestInstr += instr
	hv.Stats.GuestInstructions += instr
	hv.Stats.EnvSimulated += j
	hv.Stats.HypervisorTime += sim.Time(j) * b
	if resident {
		hv.Stats.ResidentSims += j
	}
	hv.residentAt = hv.guestInstr - 1
	hv.stormStats.Batches++
	hv.stormStats.Polls += j
	r.storm = true // the j-th poll's load was this load
	return sim.Time(j) * (a + b)
}
