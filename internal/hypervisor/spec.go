//go:build spec

package hypervisor

// Built with -tags spec, no hypervisor retires a poll storm ahead and no
// bare guest a wait: both run poll by poll and chunk by chunk.
func init() { debugNoStorm = true }
