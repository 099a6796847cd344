//go:build spec

package hypervisor

// Built with -tags spec, no hypervisor retires a poll storm ahead, runs a
// busy guest's chunks ahead, or retires a bare guest's wait: all run poll
// by poll and chunk by chunk, one Run each.
func init() { debugNoStorm = true }
