package machine

import (
	"repro/internal/isa"
)

// Superblock traces: straight-line runs of decoded instructions fused
// into records with lowered dispatch, executed whole by Run between
// async-condition checks. A trace starts at an entry slot, extends
// through trace-eligible instructions (plain ALU, memory, branches),
// and ends before the first instruction that can invalidate hoisted
// state — privileged and resync-class ops, GATE, BREAK, PROBE, MFTOD,
// WFI, HALT, DIAG — or at an unconditional transfer, the page end, or
// the length cap. Because no trace contains a privileged or resync
// instruction, the per-instruction privilege and resync bit tests of
// the fast loop are discharged once, at build time, for the whole run.
//
// Lowering precomputes what Step derives per instruction: immediates
// are sign-extended (LUI pre-shifted), branch targets become offsets
// from the trace entry address, compare+branch pairs fuse into one op,
// and every op carries its instruction index and the class-statistic
// counts retired before it, so any exit point can reconstruct exact
// Stats and the exact PC without per-instruction bookkeeping.
//
// Equivalence with Step is maintained by construction:
//
//   - the executor runs the ops of a trace that retire whole within the
//     current budget (recovery counter and interval timer included) and
//     stops at the first that does not — the whole trace when it fits, a
//     prefix of it when it does not — so epoch boundaries and timer fire
//     points land exactly where Step would put them, and which traces run
//     does not depend on where the budget ends;
//   - data accesses replicate translate/loadPhys/storePhys including
//     TLB recency (flushPending + touch + hit/miss counts) and the
//     deferred fetch-touch re-arm;
//   - a store onto a word with anything decoded on it goes through
//     storePhys, and the page generation counter is checked behind it,
//     so self-modifying code exits the trace the moment it overwrites
//     any covered slot (the store itself retires, like Step); every
//     other store has nothing to invalidate (see the data window in
//     trace_exec.go);
//   - traps reconstruct the faulting PC and StepResult (Inst/Raw
//     included) from the op's position, leaving architected state
//     exactly as Step would.
//
// Traces live in the decodedPage and are dropped by the same stores
// that invalidate decoded slots (see invalidateWord), and wholesale by
// WriteBytes and snapshot restore.

// Exit kinds from runTraces.
const (
	// texStep: no instruction retired — no trace starts here, or its
	// first op is a fused compare+branch and one instruction is left; the
	// caller must take the exact per-instruction path (and retire at least
	// one instruction before retrying trace dispatch, or the two paths
	// would ping-pong).
	texStep = iota
	// texResync: one or more instructions retired and PC is set; the
	// caller re-evaluates async conditions and hoisted state.
	texResync
	// texTrap: a synchronous trap is staged in m.tres (Inst/Raw set);
	// retired-prefix statistics are already flushed.
	texTrap
)

const (
	// traceMaxInstrs caps trace length in instructions.
	traceMaxInstrs = 64
	// traceIneligible marks an entry slot whose instruction cannot
	// start a trace, so repeated probes stay O(1).
	traceIneligible = 0xFFFF
	// traceVisited marks an entry slot seen once by trace dispatch.
	// Compilation happens on the second visit, so one-shot code (boot
	// paths, rarely-taken handlers) never pays the compiler; the first
	// visit runs on the exact per-instruction path instead.
	traceVisited = 0xFFFE
)

// Lowered op kinds. The zero value is invalid so a zeroed op is never
// executable.
const (
	tBAD uint8 = iota
	tNOP
	tADD
	tSUB
	tAND
	tOR
	tXOR
	tSLL
	tSRL
	tSRA
	tSLT
	tSLTU
	tMUL
	tDIV
	tREM
	tADDI
	tANDI
	tORI
	tXORI
	tSLTI
	tSLTIU
	tSLLI
	tSRLI
	tSRAI
	tLI // LUI with the <<11 folded into imm
	tLDW
	tLDH
	tLDB
	tSTW
	tSTH
	tSTB
	tBEQ
	tBNE
	tBLT
	tBGE
	tBLTU
	tBGEU
	tBL
	tBV
	tFADDIBEQ // fused ALU+branch: ALU result written, then compared to 0
	tFADDIBNE
	tFANDIBEQ
	tFANDIBNE
	tFSLTIBEQ
	tFSLTIBNE
)

// traceOp is one lowered operation as lowering sees it, and the cold
// half of what the executor keeps (16 bytes). pos is the instruction
// index of the op within its trace (fused ops span pos and pos+1);
// ld/st/br are the load/store/branch counts retired BEFORE the op, so
// exits need no per-op counters. imm is the precomputed immediate —
// for plain branches and BL, the taken-target byte offset from the
// trace entry address. aux is the fused-branch taken offset, or BL's
// link offset. The executor dispatches on word() and comes back to this
// record only where it leaves the trace: a taken branch, a resync, a
// trap.
type traceOp struct {
	kind       uint8
	rd, r1, r2 uint8
	ld, st, br uint8
	pos        uint8
	imm        uint32
	aux        uint32
}

// word packs what executing the op needs into the one uint64 the hot
// loop loads: kind | rd<<8 | r1<<16 | r2<<24 | imm<<32. Decode keeps the
// register fields to five bits, which is what lets the loop index the
// register file with &31 and no bounds check (see opRd and friends).
func (op traceOp) word() uint64 {
	return uint64(op.kind) | uint64(op.rd)<<8 | uint64(op.r1)<<16 | uint64(op.r2)<<24 | uint64(op.imm)<<32
}

func opRd(w uint64) uint64  { return w >> 8 & 31 }
func opR1(w uint64) uint64  { return w >> 16 & 31 }
func opR2(w uint64) uint64  { return w >> 24 & 31 }
func opImm(w uint64) uint32 { return uint32(w >> 32) }

// trace is one superblock: the packed words the executor runs (code),
// the side table it reads at exits (ops, index for index), and
// whole-trace totals for the common run-to-the-end exit.
type trace struct {
	code                    []uint64
	ops                     []traceOp
	ilen                    uint32 // instructions retired when no side exit is taken
	loads, stores, branches uint32
	// spin is how many ops, from the first, a self-loop iteration may
	// span and still carry nothing into the next (see spinPrefix).
	spin int
}

// fit is how many ops of the trace, from the first, retire whole within
// allowed instructions: all of them when the trace fits, otherwise those
// that end before the cut — op k ends where op k+1 begins. Only a fused
// compare+branch, two instructions, can leave one instruction unused.
func (tr *trace) fit(allowed uint64) int {
	if allowed >= uint64(tr.ilen) {
		return len(tr.ops)
	}
	n := 0
	for n+1 < len(tr.ops) && uint64(tr.ops[n+1].pos) <= allowed {
		n++
	}
	return n
}

// dropTraces discards every trace on the page and bumps the generation
// counter so a running executor notices mid-trace. Entry marks
// (including ineligible ones) reset too: the code that earned them has
// been overwritten.
func (pg *decodedPage) dropTraces() {
	pg.gen++
	clear(pg.traceAt[:])
	// The dropped records are NOT recycled here: a drop can happen under
	// a running trace (a store from inside it), whose executor goes on
	// reading the record until it sees gen move. They are left to the
	// collector; only the traces a page still holds when its machine dies
	// go back to the arena (reclaim, at Release), when no reader can
	// remain.
	pg.traces = nil
	pg.cover = [instsPerPage / 64]uint64{}
}

// traceFor returns the trace entered at slot, building it on first
// probe, or nil when the slot cannot start a trace.
func (m *Machine) traceFor(pg *decodedPage, base, slot uint32) *trace {
	switch ti := pg.traceAt[slot]; ti {
	case 0:
		pg.traceAt[slot] = traceVisited
		m.runGen++
		return nil
	case traceVisited:
		return m.buildTrace(pg, base, slot)
	case traceIneligible:
		return nil
	default:
		return pg.traces[ti-1]
	}
}

// peekInst returns the decoded instruction at slot via the decoded-page
// cache, filling it if needed. ok=false means the word is illegal.
func (m *Machine) peekInst(pg *decodedPage, base, slot uint32) (isa.Inst, bool) {
	if pg.valid[slot>>6]&(1<<(slot&63)) != 0 {
		return pg.insts[slot], true
	}
	in, _, ok := m.fill(pg, base, slot)
	return in, ok
}

// aluRegKind maps register-ALU opcodes to trace kinds (tBAD otherwise).
func aluRegKind(op isa.Op) uint8 {
	switch op {
	case isa.OpADD:
		return tADD
	case isa.OpSUB:
		return tSUB
	case isa.OpAND:
		return tAND
	case isa.OpOR:
		return tOR
	case isa.OpXOR:
		return tXOR
	case isa.OpSLL:
		return tSLL
	case isa.OpSRL:
		return tSRL
	case isa.OpSRA:
		return tSRA
	case isa.OpSLT:
		return tSLT
	case isa.OpSLTU:
		return tSLTU
	case isa.OpMUL:
		return tMUL
	}
	return tBAD
}

// aluImmKind maps immediate-ALU opcodes to trace kinds (tBAD otherwise).
func aluImmKind(op isa.Op) uint8 {
	switch op {
	case isa.OpADDI:
		return tADDI
	case isa.OpANDI:
		return tANDI
	case isa.OpORI:
		return tORI
	case isa.OpXORI:
		return tXORI
	case isa.OpSLTI:
		return tSLTI
	case isa.OpSLTIU:
		return tSLTIU
	case isa.OpSLLI:
		return tSLLI
	case isa.OpSRLI:
		return tSRLI
	case isa.OpSRAI:
		return tSRAI
	case isa.OpLUI:
		return tLI
	}
	return tBAD
}

// fusedKind returns the fused compare+branch kind for (aluOp, brOp), or
// tBAD when the pair does not fuse.
func fusedKind(alu, br isa.Op) uint8 {
	var base uint8
	switch alu {
	case isa.OpADDI:
		base = tFADDIBEQ
	case isa.OpANDI:
		base = tFANDIBEQ
	case isa.OpSLTI:
		base = tFSLTIBEQ
	default:
		return tBAD
	}
	switch br {
	case isa.OpBEQ:
		return base
	case isa.OpBNE:
		return base + 1
	}
	return tBAD
}

// buildTrace compiles the superblock entered at slot entry, registers
// it on the page, and returns it — or marks the entry ineligible and
// returns nil when the first instruction cannot be lowered.
func (m *Machine) buildTrace(pg *decodedPage, base, entry uint32) *trace {
	m.runGen++
	code, ops := m.arena.code[:0], m.arena.ops[:0]
	var ld, st, br uint8
	pos := uint8(0)
	slot := entry
	stop := false
	for !stop && pos < traceMaxInstrs && slot < instsPerPage {
		in, ok := m.peekInst(pg, base, slot)
		if !ok {
			break
		}
		op := traceOp{
			rd: uint8(in.Rd), r1: uint8(in.R1), r2: uint8(in.R2),
			ld: ld, st: st, br: br, pos: pos,
		}
		width := uint8(1)
		switch {
		case aluRegKind(in.Op) != tBAD:
			if in.Rd == 0 {
				op.kind = tNOP // r0-destination ALU retires with no effect
			} else {
				op.kind = aluRegKind(in.Op)
			}
		case in.Op == isa.OpDIV || in.Op == isa.OpREM:
			op.kind = tDIV
			if in.Op == isa.OpREM {
				op.kind = tREM
			}
		case aluImmKind(in.Op) != tBAD:
			if in.Rd == 0 {
				op.kind = tNOP
				break
			}
			// Compare+branch fusion: ALU writes rd, next instruction
			// branches on rd vs r0. The write is kept; the pair retires
			// as two instructions.
			if pos+1 < traceMaxInstrs && slot+1 < instsPerPage {
				if nx, ok2 := m.peekInst(pg, base, slot+1); ok2 && nx.R1 == in.Rd && nx.R2 == 0 {
					if fk := fusedKind(in.Op, nx.Op); fk != tBAD {
						op.kind = fk
						op.imm = uint32(in.Imm)
						op.aux = uint32(int32(pos)+2+nx.Imm) * 4
						width = 2
						br++
						break
					}
				}
			}
			op.kind = aluImmKind(in.Op)
			op.imm = uint32(in.Imm)
			if in.Op == isa.OpLUI {
				op.imm = uint32(in.Imm) << 11
			}
		case in.Op == isa.OpLDW || in.Op == isa.OpLDH || in.Op == isa.OpLDB:
			switch in.Op {
			case isa.OpLDW:
				op.kind = tLDW
			case isa.OpLDH:
				op.kind = tLDH
			default:
				op.kind = tLDB
			}
			op.imm = uint32(in.Imm)
			ld++
		case in.Op == isa.OpSTW || in.Op == isa.OpSTH || in.Op == isa.OpSTB:
			switch in.Op {
			case isa.OpSTW:
				op.kind = tSTW
			case isa.OpSTH:
				op.kind = tSTH
			default:
				op.kind = tSTB
			}
			op.imm = uint32(in.Imm)
			st++
		case in.Op == isa.OpBEQ || in.Op == isa.OpBNE || in.Op == isa.OpBLT ||
			in.Op == isa.OpBGE || in.Op == isa.OpBLTU || in.Op == isa.OpBGEU:
			switch in.Op {
			case isa.OpBEQ:
				op.kind = tBEQ
			case isa.OpBNE:
				op.kind = tBNE
			case isa.OpBLT:
				op.kind = tBLT
			case isa.OpBGE:
				op.kind = tBGE
			case isa.OpBLTU:
				op.kind = tBLTU
			default:
				op.kind = tBGEU
			}
			op.imm = uint32(int32(pos)+1+in.Imm) * 4
			br++
			// Same-register BEQ/BGE/BGEU always take: the fall-through
			// is dead, so the trace ends here.
			if in.R1 == in.R2 && (in.Op == isa.OpBEQ || in.Op == isa.OpBGE || in.Op == isa.OpBGEU) {
				stop = true
			}
		case in.Op == isa.OpBL:
			op.kind = tBL
			op.imm = uint32(int32(pos)+1+in.Imm) * 4
			op.aux = (uint32(pos) + 1) * 4
			br++
			stop = true
		case in.Op == isa.OpBV:
			op.kind = tBV
			br++
			stop = true
		case in.Op == isa.OpNOP:
			op.kind = tNOP
		default:
			// Privileged, resync-class, GATE, BREAK, PROBE, MFTOD, WFI,
			// HALT, DIAG: terminators — never inside a trace.
			stop = true
			continue
		}
		code, ops = append(code, op.word()), append(ops, op)
		pos += width
		slot += uint32(width)
	}
	m.arena.code, m.arena.ops = code, ops
	if len(ops) == 0 {
		pg.traceAt[entry] = traceIneligible
		return nil
	}
	tr := m.arena.trace(code, ops)
	tr.ilen, tr.spin = uint32(pos), spinPrefix(ops)
	tr.loads, tr.stores, tr.branches = uint32(ld), uint32(st), uint32(br)
	pg.traces = append(pg.traces, tr)
	pg.traceAt[entry] = uint16(len(pg.traces))
	for s := entry; s < slot; s++ {
		pg.cover[s>>6] |= 1 << (s & 63)
	}
	return tr
}

// spinPrefix is the length of the longest prefix of ops that contains no
// store and writes no register it read before writing it (r0 reads as
// zero and is never written): an iteration of a self-loop inside it
// carries no state into the next, except through memory and devices,
// which the executor watches at run time (see texState.spin).
func spinPrefix(ops []traceOp) int {
	var readFirst, written uint32 // register masks
	for n, op := range ops {
		var r, w uint32 // what the op reads, then writes
		switch k := op.kind; {
		case k == tNOP:
		case k >= tADD && k <= tREM:
			r, w = 1<<op.r1|1<<op.r2, 1<<op.rd
		case k == tLI, k == tBL:
			w = 1 << op.rd
		case k >= tADDI && k <= tLDB, k >= tFADDIBEQ:
			r, w = 1<<op.r1, 1<<op.rd
		case k >= tBEQ && k <= tBGEU:
			r = 1<<op.r1 | 1<<op.r2
		case k == tBV:
			r = 1 << op.r1
		default: // a store
			return n
		}
		readFirst |= r &^ written &^ 1
		if w&readFirst != 0 {
			return n
		}
		written |= w &^ 1
	}
	return len(ops)
}
