//go:build spec

package machine

// Built with -tags spec, Run executes on the per-instruction loop alone:
// no trace (what Config.NoTraces does for one machine), so no spin
// fast-forward either, and no call recalled from the memo — the reference
// arms of the trace, spin and memo differentials. Save's bytes cannot
// tell: traces move the LRU clock but not the order of its stamps, and
// the capture encodes the order (TLBState).
func init() { debugNoTraces, debugNoMemo, debugNoSpin = true, true, true }
