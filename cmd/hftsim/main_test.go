package main

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/chaos"
)

// TestReplayCampaignScenarios: a campaign run's emitted scenario,
// replayed with the flags its header names, exits with the verdict
// Execute gave the run — 0 for the nightly campaign's clean runs,
// including the steps that land after the workload completed.
func TestReplayCampaignScenarios(t *testing.T) {
	dir := t.TempDir()
	for i := 0; i < 50; i++ {
		s := chaos.ScheduleAt(19951203, i)
		path := filepath.Join(dir, fmt.Sprintf("run%d.hfts", i))
		if err := os.WriteFile(path, []byte(chaos.Scenario(s, nil, "")), 0o644); err != nil {
			t.Fatal(err)
		}
		var out, errs bytes.Buffer
		if code := run(append(s.Flags(), "-scenario", path), nil, &out, &errs); code != 0 {
			t.Errorf("run %d (%v) exits %d:\n%s%s", i, s, code, out.String(), errs.String())
		}
	}
}

// TestScenarioExitCodes pins the exit status of a script run: 0 for a
// clean run (a step after completion is skipped, not an error), 2 for a
// script that does not parse, before anything runs.
func TestScenarioExitCodes(t *testing.T) {
	for _, tc := range []struct {
		name, script string
		code         int
		out          string
	}{
		{"step after completion", "until-commit 5000\naddbackup\nwait\ncheck\n", 0, "skipped"},
		{"checkpoint round trip", "run 5ms\nsave-restore\nfail primary\n", 0, "check passed"},
		{"until-epoch", "until-epoch 12\n", 2, "use until-commit"},
		{"bad line", "run 5ms\nfail everything\n", 2, "line 2"},
	} {
		var out, errs bytes.Buffer
		args := []string{"-workload", "write", "-ops", "3", "-scenario", "-"}
		code := run(args, strings.NewReader(tc.script), &out, &errs)
		if code != tc.code || !strings.Contains(out.String()+errs.String(), tc.out) {
			t.Errorf("%s: exit %d, want %d with %q in:\n%s%s", tc.name, code, tc.code, tc.out, out.String(), errs.String())
		}
	}
}
