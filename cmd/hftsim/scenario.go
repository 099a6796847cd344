package main

import (
	"fmt"
	"io"
	"os"
	"path/filepath"

	"repro/internal/chaos"
)

// runScenario executes a parsed scenario through chaos.Execute and
// prints what ran from its Report: where each step landed (or that it
// was skipped, failed or never reached), the result, and the verdict.
// It returns the exit status: 1 on a violation, 0 otherwise.
func runScenario(s chaos.Schedule, w io.Writer) int {
	rep := chaos.Execute(s)
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
			res.Time, rep.Metrics.Commits, res.Checksum, res.Promoted, res.Console)
		if m := rep.Metrics; m.Failovers > 0 {
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

// saveScenarios writes each violation's scenario script to
// dir/chaos_run<i>.hfts, creating dir if missing, and logs each path to
// w. An empty dir writes nothing.
func saveScenarios(dir string, vs []chaos.ViolationReport, w io.Writer) error {
	if dir == "" || len(vs) == 0 {
		return nil
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return fmt.Errorf("artifact dir: %w", err)
	}
	for _, v := range vs {
		path := filepath.Join(dir, fmt.Sprintf("chaos_run%d.hfts", v.Run))
		if err := os.WriteFile(path, []byte(v.Scenario), 0o644); err != nil {
			return fmt.Errorf("artifact: %w", err)
		}
		fmt.Fprintf(w, "run %d artifact: %s\n", v.Run, path)
	}
	return nil
}
