//go:build spec

package hft

// Built with -tags spec, every closed-form path is off (the spec.go files
// of sim, machine and hypervisor): tests that pin host work pin the
// reference arm's.
func init() { referenceArm = true }
