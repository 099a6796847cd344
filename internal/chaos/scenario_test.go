package chaos

import (
	"os"
	"reflect"
	"strings"
	"testing"

	hft "repro"
)

// TestScenarioRoundTrip pins the one language: for every schedule of
// the nightly campaign, parsing its emitted scenario gives back its
// steps, and reading its replay flags gives back its base — so a replay
// is the recorded run, step for step and flag for flag.
func TestScenarioRoundTrip(t *testing.T) {
	for i := 0; i < 500; i++ {
		s := ScheduleAt(19951203, i)
		steps, err := ParseScenario(Scenario(s, nil, "round trip"))
		if err != nil {
			t.Fatalf("run %d: %v", i, err)
		}
		if !reflect.DeepEqual(steps, s.Steps) {
			t.Fatalf("run %d: scenario parses as %v, want %v", i, steps, s.Steps)
		}
		base := readFlags(t, s.Flags()...)
		base.Steps = s.Steps
		if !reflect.DeepEqual(base, s) {
			t.Fatalf("run %d: flags %v read back as %v, want %v", i, s.Flags(), base, s)
		}
	}
}

// readmeScenario is the scenario example in the repository's README.
func readmeScenario(t testing.TB) string {
	b, err := os.ReadFile("../../README.md")
	if err != nil {
		t.Fatal(err)
	}
	_, script, ok := strings.Cut(string(b), "-scenario - <<'EOF'\n")
	script, _, ok2 := strings.Cut(script, "\nEOF\n")
	if !ok || !ok2 {
		t.Fatal("README has no scenario example")
	}
	return script
}

// recoveryScript exercises the whole recovery surface in one script:
// failover, reintegration, a file checkpoint round trip, a second
// failstop.
const recoveryScript = `run 10ms
fail primary
until-commit 10
addbackup
run 30ms
save /tmp/s.hft
restore /tmp/s.hft
fail backup 1
wait
`

func TestParseScenario(t *testing.T) {
	ms := hft.Millisecond
	for _, tc := range []struct {
		name, script string
		want         []Step
		err          string // a substring of the error, "" for none
	}{
		{"empty", "# nothing\n\n", nil, ""},
		{"footer only", "wait\ncheck\n", nil, ""},
		{"advance then op", "until-commit 3\nfail backup 2\n",
			[]Step{{At: Coord{Commit: 3}, Op: OpFailBackup, Backup: 2}}, ""},
		{"op where the last step left off", "run-to 5ms\nfail primary\naddbackup\n",
			[]Step{{At: Coord{Time: 5 * ms}, Op: OpFailPrimary}, {Op: OpAddBackup}}, ""},
		{"advances alone are snapshots", "run 2ms\nrun 3ms # comment\nwait\n",
			[]Step{{At: Coord{For: 2 * ms}, Op: OpSnapshot}, {At: Coord{For: 3 * ms}, Op: OpSnapshot}}, ""},
		{"link parameters", "link drop=2 lat=1ms\nlink bw=5\n",
			[]Step{{Op: OpLink, Latency: ms, Drop: 2}, {Op: OpLink, Bandwidth: 5}}, ""},
		{"checkpoints", "save a.hft\nrestore a.hft\nsave-restore\nsnapshot\n",
			[]Step{{Op: OpSave, Path: "a.hft"}, {Op: OpRestore, Path: "a.hft"}, {Op: OpSaveRestore}, {Op: OpSnapshot}}, ""},
		{"recovery surface", recoveryScript, []Step{
			{At: Coord{For: 10 * ms}, Op: OpFailPrimary},
			{At: Coord{Commit: 10}, Op: OpAddBackup},
			{At: Coord{For: 30 * ms}, Op: OpSave, Path: "/tmp/s.hft"},
			{Op: OpRestore, Path: "/tmp/s.hft"},
			{Op: OpFailBackup, Backup: 1},
		}, ""},
		{"until-epoch names its replacement", "until-epoch 12\n", nil, "use until-commit"},
		{"unknown command", "run 1ms\nreboot\n", nil, `line 2 "reboot": unknown command`},
		{"nothing after the footer", "wait\nfail primary\n", nil, "may follow"},
		{"bad duration", "run soon\n", nil, "invalid duration"},
		{"negative duration", "run-to -1ms\n", nil, "negative"},
		{"backup 0", "fail backup 0\n", nil, "count from 1"},
		{"arity", "addbackup now\n", nil, "takes no arguments"},
		{"link parameter", "link mtu=9000\n", nil, "unknown parameter"},
	} {
		got, err := ParseScenario(tc.script)
		switch {
		case tc.err == "" && err != nil:
			t.Errorf("%s: %v", tc.name, err)
		case tc.err != "" && (err == nil || !strings.Contains(err.Error(), tc.err)):
			t.Errorf("%s: error %v, want one containing %q", tc.name, err, tc.err)
		case !reflect.DeepEqual(got, tc.want):
			t.Errorf("%s: got %v, want %v", tc.name, got, tc.want)
		}
	}
	if _, err := ParseScenario(readmeScenario(t)); err != nil {
		t.Errorf("README's scenario: %v", err)
	}
}

// FuzzScenario: the parser faces text from outside the process. It
// must not panic, and what it accepts must be stable under parse →
// emit → parse.
func FuzzScenario(f *testing.F) {
	for i := 0; i < 500; i++ {
		f.Add(Scenario(ScheduleAt(19951203, i), nil, ""))
	}
	f.Add(readmeScenario(f))
	f.Add(recoveryScript)
	f.Fuzz(func(t *testing.T, script string) {
		steps, err := ParseScenario(script)
		if err != nil {
			return
		}
		text := Scenario(Schedule{Steps: steps}, nil, "")
		again, err := ParseScenario(text)
		if err != nil {
			t.Fatalf("emitted scenario does not parse: %v\n%s", err, text)
		}
		if !reflect.DeepEqual(again, steps) {
			t.Fatalf("parse → emit → parse moved the steps:\n%v\n%v\n%s", steps, again, text)
		}
	})
}

// TestScenarioSaysNotMinimal: when Shrink's budget runs out before the
// schedule is 1-minimal, the scenario a campaign renders says so on the
// line after its title; a 1-minimal shrink and an unshrunk violation
// render no such line. The line is a comment, so the script still parses
// to the schedule it reproduces. The shrink results are made up: run
// 894's schedule stands in for any violating one.
func TestScenarioSaysNotMinimal(t *testing.T) {
	orig := ScheduleAt(11, 894)
	if len(orig.Steps) < 3 {
		t.Fatalf("run 894 has %d steps, want a schedule the test can cut", len(orig.Steps))
	}
	small := orig
	small.Steps = orig.Steps[:2]
	vio := &Violation{Kind: VPanic, Detail: "replication: divergence at epoch 385"}
	v := ViolationReport{
		Run: 894, Schedule: orig, Report: Report{Violation: vio},
		Shrunk: ShrinkResult{Schedule: small, Report: Report{Violation: vio}},
	}
	const title = "# chaos reproduction (campaign seed 11, run 894)"
	const note = "# not 1-minimal: shrink budget (64 executions) ran out"
	for _, tc := range []struct {
		name       string
		executions int
		minimal    bool
		want       []Step
		says       bool
	}{
		{"budget ran out", shrinkBudget, false, small.Steps, true},
		{"1-minimal", 13, true, small.Steps, false},
		{"not shrunk", 0, false, orig.Steps, false},
	} {
		v.Shrunk.Executions, v.Shrunk.Minimal = tc.executions, tc.minimal
		sc := v.scenario(11)
		lines := strings.Split(sc, "\n")
		if lines[0] != title {
			t.Errorf("%s: title %q, want %q", tc.name, lines[0], title)
		}
		if says := lines[1] == note; says != tc.says || strings.Count(sc, "not 1-minimal") != btoi(tc.says) {
			t.Errorf("%s: the header says not 1-minimal: %v, want %v:\n%s", tc.name, says, tc.says, sc)
		}
		steps, err := ParseScenario(sc)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if !reflect.DeepEqual(steps, tc.want) {
			t.Errorf("%s: the scenario parses as %v, want %v", tc.name, steps, tc.want)
		}
	}
}

func btoi(b bool) int {
	if b {
		return 1
	}
	return 0
}
