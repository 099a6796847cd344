//go:build spec

package machine

// Built with -tags spec, Run recalls no call from the memo and
// fast-forwards no spin (the reference arms of memo_test.go and
// spin_test.go). Traces stay on: they are order-equivalent to Step, not
// stamp-exact, so turning them off would move the TLB stamps that Save
// encodes.
func init() { debugNoMemo, debugNoSpin = true, true }
