package chaos

// ShrinkResult is a minimized reproduction.
type ShrinkResult struct {
	// Schedule is the smallest schedule found that still violates the
	// same invariant as the original.
	Schedule Schedule
	// Report is that schedule's execution report.
	Report Report
	// Executions counts the runs the shrinker spent.
	Executions int
	// Minimal reports 1-minimality: removing any single remaining step
	// was tried and made the violation disappear. False when the
	// execution budget ran out first.
	Minimal bool
}

// Shrink minimizes a violating schedule by delta debugging:
//
//  1. ddmin over the perturbation list — remove chunks, halving the
//     chunk size, re-executing each candidate and keeping any that
//     still violates the SAME invariant kind;
//  2. coordinate reduction — each surviving step scheduled at an exact
//     virtual time is retried at the epoch-commit ordinal it was
//     observed to land on (commit coordinates survive timeline shifts
//     and replay exactly; times are fragile);
//  3. a final single-step pass proving 1-minimality.
//
// Matching on the violation KIND (not the exact detail string) is the
// classic delta-debugging compromise: strict equality makes shrinking
// brittle (details embed times and counters that shift as steps drop);
// no matching lets the shrinker wander onto a different bug. It spends
// at most shrinkBudget executions.
func Shrink(s Schedule, rep Report) ShrinkResult {
	if !rep.Failed() {
		return ShrinkResult{Schedule: s, Report: rep}
	}
	sh := &shrinker{kind: rep.Violation.Kind, best: s, bestRep: rep}

	sh.ddmin()
	sh.reduceCoords()
	minimal := sh.singles()

	return ShrinkResult{Schedule: sh.best, Report: sh.bestRep, Executions: sh.execs, Minimal: minimal}
}

// shrinkBudget bounds the executions one Shrink spends.
const shrinkBudget = 64

type shrinker struct {
	kind    ViolationKind
	execs   int
	best    Schedule
	bestRep Report
}

// try executes a candidate; if it reproduces the violation kind it
// becomes the new best. Returns whether it reproduced (false also when
// the budget is exhausted).
func (sh *shrinker) try(cand Schedule) bool {
	if sh.execs >= shrinkBudget {
		return false
	}
	sh.execs++
	rep := Execute(cand)
	if rep.Failed() && rep.Violation.Kind == sh.kind {
		sh.best, sh.bestRep = cand, rep
		return true
	}
	return false
}

// without returns best with steps [i, i+n) removed.
func (sh *shrinker) without(i, n int) Schedule {
	cand := sh.best
	cand.Steps = append(append([]Step{}, sh.best.Steps[:i]...), sh.best.Steps[i+n:]...)
	return cand
}

// ddmin removes chunks of steps, halving the chunk size until 1.
func (sh *shrinker) ddmin() {
	for size := (len(sh.best.Steps) + 1) / 2; size >= 1; size /= 2 {
		for i := 0; i+size <= len(sh.best.Steps); {
			if sh.execs >= shrinkBudget {
				return
			}
			if sh.try(sh.without(i, size)) {
				continue // steps shifted left; retry the same window
			}
			i += size
		}
	}
}

// reduceCoords retries each exact-time step at its observed commit
// ordinal.
func (sh *shrinker) reduceCoords() {
	for i := 0; i < len(sh.best.Steps); i++ {
		st := sh.best.Steps[i]
		if st.At.Commit > 0 || i >= len(sh.bestRep.AppliedAt) {
			continue
		}
		obs := sh.bestRep.AppliedAt[i]
		if obs.Commit == 0 {
			continue // landed before the first commit; time stays
		}
		cand := sh.best
		cand.Steps = append([]Step{}, sh.best.Steps...)
		cand.Steps[i].At = Coord{Commit: obs.Commit}
		sh.try(cand)
	}
}

// singles is the 1-minimality pass: repeatedly try removing every
// single remaining step until none can go. Returns whether the pass
// ran to fixpoint within budget.
func (sh *shrinker) singles() bool {
	for {
		removed := false
		for i := 0; i < len(sh.best.Steps); i++ {
			if sh.execs >= shrinkBudget {
				return false
			}
			if sh.try(sh.without(i, 1)) {
				removed = true
				i-- // the slot now holds the next step
			}
		}
		if !removed {
			return true
		}
	}
}
