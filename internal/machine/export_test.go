package machine

// What the differential tests outside the package (package machine_test,
// which can boot the guest kernel) use of its insides.

// LongestTrace is the length in instructions of the longest trace m holds.
func LongestTrace(m *Machine) uint32 { return longestTrace(m) }

// OrderEqual compares Run and Run-NoTraces with Step as traces promise
// (see orderEqual).
func OrderEqual(step, run, noTraces *Machine) error { return orderEqual(step, run, noTraces) }
