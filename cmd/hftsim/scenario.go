package main

import (
	"fmt"
	"io"

	"repro/internal/chaos"
)

// runScenario executes a parsed scenario through chaos.Execute and
// prints what ran from its Report: where each step landed (or that it
// was skipped, failed or never reached), the result, and the verdict.
// It returns the exit status: 1 on a violation, 0 otherwise.
func runScenario(s chaos.Schedule, w io.Writer) int {
	var m chaos.Metrics
	rep := chaos.Execute(s, &m)
	for i, st := range s.Steps {
		a := rep.AppliedAt[i]
		switch {
		case a.Err != "":
			fmt.Fprintf(w, "  %v: error at commit %d, t=%v: %s\n", st, a.Commit, a.Time, a.Err)
		case a.Done:
			fmt.Fprintf(w, "  %v: at commit %d, t=%v\n", st, a.Commit, a.Time)
		case a.Time > 0:
			fmt.Fprintf(w, "  %v: skipped, the workload completed at t=%v\n", st, a.Time)
		default:
			fmt.Fprintf(w, "  %v: not reached\n", st)
		}
	}
	if res := rep.Result; res.Time > 0 {
		fmt.Fprintf(w, "completed at %v after %d commits: checksum=%#x promoted=%v console=%q\n",
			res.Time, m.Commits, res.Checksum, res.Promoted, res.Console)
		if m.Failovers > 0 {
			fmt.Fprintf(w, "failovers: %d, longest blackout %v\n", m.Failovers, m.Blackout)
		}
	}
	if rep.Failed() {
		fmt.Fprintf(w, "check FAILED: %v\n", rep.Violation)
		return 1
	}
	fmt.Fprintln(w, "check passed: the run matches the bare run")
	return 0
}
