//go:build spec

package sim

// Built with -tags spec, the kernel takes no shortcut: every sleep goes
// through the wake list (the reference arm of sched_test.go). With the
// machine's and hypervisor's spec files this makes any test, golden or
// campaign one cross-layer differential of every closed-form path
// against the per-instruction, per-dispatch spec.
func init() { debugNoFastPath = true }
