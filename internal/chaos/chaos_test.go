package chaos

import (
	"flag"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	hft "repro"
	"repro/internal/console"
)

// TestScheduleAtDeterministic pins the campaign's replay contract: a
// (campaign seed, run index) pair names one schedule, forever,
// independent of worker scheduling.
func TestScheduleAtDeterministic(t *testing.T) {
	for i := 0; i < 50; i++ {
		a := ScheduleAt(42, i)
		b := ScheduleAt(42, i)
		if !reflect.DeepEqual(a, b) {
			t.Fatalf("run %d: ScheduleAt not deterministic:\n%v\n%v", i, a, b)
		}
	}
	if reflect.DeepEqual(ScheduleAt(42, 0), ScheduleAt(43, 0)) {
		t.Fatal("different campaign seeds produced identical schedules")
	}
}

// TestGenerateBounds pins the generator's safety envelope: failstops
// within budget, no message drops, bounded step counts.
func TestGenerateBounds(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 500; i++ {
		s := Generate(rng)
		if len(s.Steps) > genMaxSteps {
			t.Fatalf("schedule %d has %d steps (max %d)", i, len(s.Steps), genMaxSteps)
		}
		fails, adds, saves := 0, 0, 0
		for _, st := range s.Steps {
			switch st.Op {
			case OpFailPrimary, OpFailBackup:
				fails++
			case OpAddBackup:
				adds++
			case OpSaveRestore:
				saves++
			case OpLink:
				if st.Bandwidth < 1_000_000 {
					t.Fatalf("schedule %d degrades below 1 Mbps: %v", i, st)
				}
				if st.Latency > 2*hft.Millisecond {
					t.Fatalf("schedule %d latency %v approaches the detect timeout", i, st.Latency)
				}
			}
		}
		if fails > s.Backups {
			t.Fatalf("schedule %d: %d failstops with %d backups", i, fails, s.Backups)
		}
		if adds > genMaxAdds || saves > genMaxSaveRest {
			t.Fatalf("schedule %d: %d adds, %d save-restores", i, adds, saves)
		}
		if _, err := ParseWorkload(s.Workload); err != nil {
			t.Fatal(err)
		}
	}
}

// TestExecuteClean sanity-checks the executor on an unperturbed
// schedule: all invariants hold.
func TestExecuteClean(t *testing.T) {
	for _, w := range Workloads() {
		rep := Execute(Schedule{
			Seed: 1, Workload: w.Name, Epoch: 4096,
			Protocol: hft.ProtocolOld, Link: "ethernet", Backups: 1,
		})
		if rep.Failed() {
			t.Errorf("%s: clean run violated: %v", w.Name, rep.Violation)
		}
	}
}

// TestCampaignSmoke is the per-PR slice of the nightly campaign: a
// fixed-seed batch across the full generator envelope, every run
// checked against all four invariants. Any violation is a real bug.
func TestCampaignSmoke(t *testing.T) {
	runs := 25
	if testing.Short() {
		runs = 8
	}
	rep, err := RunCampaign(CampaignOptions{Runs: runs, Seed: 20260808, Log: testWriter{t}})
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range rep.Violations {
		t.Errorf("run %d violated %v\nschedule: %v\nscenario:\n%s",
			v.Run, v.Report.Violation, v.Schedule, v.Scenario)
	}
	// The digest pins what the runs did (completion time, commits,
	// instructions, failovers, blackout, in run order): "clean" alone
	// says only that the invariants held. It moves with any change to
	// virtual time, and with nothing else.
	want := "0f2c3e3b345931aa"
	if testing.Short() {
		want = "e3825c3b81b28064"
	}
	if rep.Digest != want {
		t.Errorf("campaign digest %s over %d runs, pinned %s", rep.Digest, runs, want)
	}
}

// TestCampaignFull is the acceptance-scale campaign: a seeded
// 1000-run sweep covering both protocols, both links and all workload
// shapes. Skipped under -short (it is the nightly CI job's workload).
func TestCampaignFull(t *testing.T) {
	if testing.Short() {
		t.Skip("1000-run campaign runs nightly; use go test -run TestCampaignFull without -short")
	}
	rep, err := RunCampaign(CampaignOptions{Runs: 1000, Seed: 19951203, Log: testWriter{t}})
	if err != nil {
		t.Fatal(err)
	}
	// Coverage proof: the sweep must actually exercise the whole
	// envelope, not degenerate into one corner.
	protos, links, shapes := map[hft.Protocol]int{}, map[string]int{}, map[string]int{}
	for i := range rep.Results {
		s := ScheduleAt(19951203, i)
		protos[s.Protocol]++
		links[s.Link]++
		shapes[s.Workload]++
	}
	if len(protos) != 2 || len(links) != 2 || len(shapes) != len(Workloads()) {
		t.Errorf("coverage hole: protocols=%v links=%v workloads=%v", protos, links, shapes)
	}
	for _, v := range rep.Violations {
		t.Errorf("run %d violated %v\nschedule: %v\nscenario:\n%s",
			v.Run, v.Report.Violation, v.Schedule, v.Scenario)
	}
}

// TestInjectedBugCaughtAndShrunk is the end-to-end proof the engine
// works: disable the console's output-ordinal dedup (the mechanism
// that makes output commit exactly-once across failovers), run a
// campaign, and require that it (a) catches the duplicate output as a
// VOutput violation and (b) shrinks the failing schedule to a
// reproduction of at most 5 scenario commands that still reproduces
// deterministically.
func TestInjectedBugCaughtAndShrunk(t *testing.T) {
	console.DisableOutputDedup = true
	defer func() { console.DisableOutputDedup = false }()

	// The bug needs a failover while the backup still holds suppressed
	// terminal output the primary already performed: echo workload,
	// primary failstop inside the output window (~7.2-7.7 ms at this
	// scale). Scan a few seeds and times so the test does not hinge on
	// one magic number; the schedule carries decoy post-failover link
	// perturbations for the shrinker to strip.
	var failing *Report
	for seed := int64(1); seed <= 4 && failing == nil; seed++ {
		for _, us := range []int64{7300, 7450, 7550, 7650} {
			s := Schedule{
				Seed: seed, Workload: "echo", Epoch: 1024,
				Protocol: hft.ProtocolOld, Link: "ethernet", Backups: 1,
				Steps: []Step{
					{At: Coord{Time: hft.Duration(us) * hft.Microsecond}, Op: OpFailPrimary},
					{At: Coord{Time: 9 * hft.Millisecond}, Op: OpLink, Bandwidth: 5_000_000, Latency: 500 * hft.Microsecond},
					{At: Coord{Time: 10 * hft.Millisecond}, Op: OpLink, Bandwidth: 10_000_000, Latency: 50 * hft.Microsecond},
				},
			}
			rep := Execute(s)
			if rep.Failed() && rep.Violation.Kind == VOutput {
				failing = &rep
				break
			}
		}
	}
	if failing == nil {
		t.Fatal("injected dedup bug was not caught: no echo+failover schedule produced duplicate output")
	}
	t.Logf("caught: %v on %v", failing.Violation, failing.Schedule)

	sh := Shrink(failing.Schedule, *failing)
	if n := CommandCount(sh.Schedule); n > 5 {
		t.Fatalf("shrunk reproduction has %d scenario commands (want <=5):\n%s",
			n, Scenario(sh.Schedule, sh.Report.Violation, "test"))
	}
	if !sh.Minimal {
		t.Errorf("shrinker did not reach 1-minimality in budget")
	}

	// The minimal schedule must reproduce deterministically.
	for i := 0; i < 2; i++ {
		rep := Execute(sh.Schedule)
		if !rep.Failed() || rep.Violation.Kind != VOutput {
			t.Fatalf("shrunk schedule did not reproduce on replay %d: %+v", i, rep.Violation)
		}
	}

	sc := Scenario(sh.Schedule, sh.Report.Violation, "injected dedup bug")
	for _, want := range []string{"fail primary", "wait\ncheck", "-workload echo", "-scenario"} {
		if !strings.Contains(sc, want) {
			t.Errorf("scenario missing %q:\n%s", want, sc)
		}
	}
	t.Logf("shrunk scenario:\n%s", sc)
}

// TestFleetViolationShrinks: a fleet is a campaign's rollup, so what a
// fleet's runs violate is shrunk like any campaign violation. With the
// console's output dedup disabled, run 7 of the default fleet seed
// emits output twice; it must come back counted in the fleet aggregate
// and as a VOutput violation whose shrunk scenario has at most 5
// commands and, parsed back from its text, replays to the same kind.
func TestFleetViolationShrinks(t *testing.T) {
	console.DisableOutputDedup = true
	defer func() { console.DisableOutputDedup = false }()

	rep, err := RunCampaign(CampaignOptions{Runs: 8, Seed: 19951203, Log: testWriter{t}})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Aggregate.Violations != len(rep.Violations) {
		t.Errorf("fleet aggregate counts %d violations, the campaign reports %d", rep.Aggregate.Violations, len(rep.Violations))
	}
	var v *ViolationReport
	for i := range rep.Violations {
		if rep.Violations[i].Run == 7 {
			v = &rep.Violations[i]
		}
	}
	if v == nil || v.Report.Violation.Kind != VOutput || !strings.HasPrefix(rep.Results[7].Violation, "output: ") {
		t.Fatalf("run 7 does not come back as an output violation: %q", rep.Results[7].Violation)
	}
	if n := CommandCount(v.Shrunk.Schedule); n == 0 || n > 5 {
		t.Fatalf("run 7 shrunk to %d scenario commands (want 1 to 5):\n%s", n, v.Scenario)
	}
	if says := strings.Contains(v.Scenario, "# not 1-minimal"); says == v.Shrunk.Minimal {
		t.Errorf("1-minimal %v, but the scenario's header says not 1-minimal: %v:\n%s", v.Shrunk.Minimal, says, v.Scenario)
	}
	replay := v.Schedule
	if replay.Steps, err = ParseScenario(v.Scenario); err != nil {
		t.Fatal(err)
	}
	if got := Execute(replay); !got.Failed() || got.Violation.Kind != VOutput {
		t.Fatalf("the shrunk scenario replays to %v, want an output violation:\n%s", got.Violation, v.Scenario)
	}
	t.Logf("run 7 shrunk in %d executions:\n%s", v.Shrunk.Executions, v.Scenario)
}

// TestShrinkRemovesJunk pins the shrinker on a synthetic oracle — no
// simulation, just Execute-compatible semantics via a real schedule
// whose violation persists under any subset containing the trigger.
// (The injected-bug test covers the real-executor path; this one
// covers the ddmin bookkeeping itself.)
func TestShrinkScenarioEmission(t *testing.T) {
	s := Schedule{
		Seed: 9, Workload: "cpu", Epoch: 4096,
		Protocol: hft.ProtocolNew, Link: "atm", Backups: 2,
		Steps: []Step{
			{At: Coord{Commit: 3}, Op: OpFailBackup, Backup: 2},
			{At: Coord{Time: 5 * hft.Millisecond}, Op: OpLink, Bandwidth: 1_000_000, Latency: 1 * hft.Millisecond},
			{At: Coord{Commit: 9}, Op: OpSaveRestore},
			{At: Coord{Commit: 12}, Op: OpAddBackup},
		},
	}
	sc := Scenario(s, &Violation{Kind: VOutput, Detail: "x"}, "unit")
	for _, want := range []string{
		"until-commit 3\nfail backup 2\n",
		"run-to 5000000ns\nlink bw=1000000 lat=1000000ns\n",
		"until-commit 9\nsave-restore\n",
		"until-commit 12\naddbackup\n",
		"wait\ncheck\n",
		"-workload cpu -seed 9 -epoch 4096 -protocol new -link atm -backups 2",
	} {
		if !strings.Contains(sc, want) {
			t.Errorf("scenario missing %q:\n%s", want, sc)
		}
	}
	if got, want := CommandCount(s), 8; got != want {
		t.Errorf("CommandCount = %d, want %d", got, want)
	}
}

type testWriter struct{ t *testing.T }

func (w testWriter) Write(p []byte) (int, error) {
	w.t.Logf("%s", strings.TrimRight(string(p), "\n"))
	return len(p), nil
}

// TestMatchWriter pins the streaming comparison behind invariant 4's
// re-save: the reported offset is where a stored copy compared with
// diffOffset would have differed.
func TestMatchWriter(t *testing.T) {
	want := []byte("0123456789")
	for _, tc := range []struct {
		name   string
		writes []string
		at     int
	}{
		{"equal", []string{"0123", "456789"}, -1},
		{"differs in second write", []string{"0123", "45x789"}, 6},
		{"stops short", []string{"0123", "45"}, 6},
		{"overruns", []string{"0123456789", "ab"}, 10},
		{"differs, then overruns", []string{"x123456789ab"}, 0},
		{"empty", nil, 0},
	} {
		m := matchWriter{want: want, diff: -1}
		var got []byte
		for _, w := range tc.writes {
			m.Write([]byte(w))
			got = append(got, w...)
		}
		if at := m.mismatch(); at != tc.at {
			t.Errorf("%s: mismatch at %d, want %d", tc.name, at, tc.at)
		}
		if ref := diffOffset(want, got); tc.at >= 0 && ref != tc.at {
			t.Errorf("%s: diffOffset over stored copies says %d, want %d", tc.name, ref, tc.at)
		}
	}
}

// TestBareBaselineKeyedByShape: a shape's name does not identify it —
// hftsim builds "cpu" at whatever -iters says — so two same-named shapes
// of different sizes must get their own baselines, not the first one run.
func TestBareBaselineKeyedByShape(t *testing.T) {
	small := Workload{Name: "cpu", Guest: hft.CPUIntensive(300)}
	large := Workload{Name: "cpu", Guest: hft.CPUIntensive(900)}
	a, err := Bare(small, 1, 1024)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Bare(large, 1, 1024)
	if err != nil {
		t.Fatal(err)
	}
	if a.Checksum == b.Checksum {
		t.Fatalf("300- and 900-iteration cpu shapes share one baseline checksum %#x", a.Checksum)
	}
	if again, _ := Bare(small, 1, 1024); again.Checksum != a.Checksum {
		t.Fatalf("recalled baseline %#x differs from the first run's %#x", again.Checksum, a.Checksum)
	}
}

// TestCompare pins the oracle field by field: each way a run can differ
// from bare yields its kind, and a run equal to bare yields none.
func TestCompare(t *testing.T) {
	bare := hft.Result{Time: 5 * hft.Millisecond, Checksum: 0xc0ffee, Console: "C\n", NetReplies: "abcd"}
	for _, tc := range []struct {
		name string
		edit func(*hft.Result)
		want ViolationKind // 0: no violation
	}{
		{"equal", func(*hft.Result) {}, 0},
		{"timing, messages and promotion are not observable", func(r *hft.Result) {
			r.Time, r.MessagesSent, r.UncertainSynthesized, r.Promoted = 9*hft.Millisecond, 40, 1, true
		}, 0},
		{"checksum", func(r *hft.Result) { r.Checksum++ }, VDigest},
		{"guest panic with an equal checksum", func(r *hft.Result) { r.GuestPanic = 0x3 }, VDigest},
		{"console", func(r *hft.Result) { r.Console = "C\nC\n" }, VOutput},
		{"reply transcript", func(r *hft.Result) { r.NetReplies = "abce" }, VService},
		{"divergences only", func(r *hft.Result) { r.Divergences = 1 }, VDigest},
	} {
		got := bare
		tc.edit(&got)
		v := Compare(bare, got)
		switch {
		case tc.want == 0 && v != nil:
			t.Errorf("%s: unexpected violation %v", tc.name, v)
		case tc.want != 0 && (v == nil || v.Kind != tc.want):
			t.Errorf("%s: got %v, want a %v violation", tc.name, v, tc.want)
		}
	}
}

// TestCheckUnansweredClient: a run whose transcript matches bare still
// violates invariant 5 if a client's request went unanswered, and the
// client side is only asked of shapes with a client load.
func TestCheckUnansweredClient(t *testing.T) {
	serve, err := ParseWorkload("serve")
	if err != nil {
		t.Fatal(err)
	}
	cpu, err := ParseWorkload("cpu")
	if err != nil {
		t.Fatal(err)
	}
	res := hft.Result{Checksum: 1, NetReplies: "r"}
	n := int(serve.Guest.Ops)
	for _, tc := range []struct {
		name string
		w    Workload
		lat  hft.ServiceLatencies
		want ViolationKind
	}{
		{"all answered", serve, hft.ServiceLatencies{Requests: n, Answered: n}, 0},
		{"one unanswered", serve, hft.ServiceLatencies{Requests: n, Answered: n - 1}, VService},
		{"one never issued", serve, hft.ServiceLatencies{Requests: n - 1, Answered: n - 1}, VService},
		{"no client population measured", serve, hft.ServiceLatencies{}, VService},
		{"no client load", cpu, hft.ServiceLatencies{}, 0},
	} {
		v := Check(tc.w, res, res, tc.lat)
		switch {
		case tc.want == 0 && v != nil:
			t.Errorf("%s: unexpected violation %v", tc.name, v)
		case tc.want != 0 && (v == nil || v.Kind != tc.want):
			t.Errorf("%s: got %v, want a %v violation", tc.name, v, tc.want)
		}
	}
}

// TestShapeFromFlags: a replay builds its cluster from the flags an
// emitted scenario carries, read back through ScheduleFlags with
// hftsim's defaults for every flag left out. For every canonical shape
// that must rebuild the shape exactly; a size off the canonical shape
// (-ops 6) must survive the round trip too.
func TestShapeFromFlags(t *testing.T) {
	for _, w := range Workloads() {
		s := readFlags(t, Schedule{Workload: w.Name, Link: "ethernet"}.Flags()...)
		got, err := s.Shape()
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, w) {
			t.Errorf("%s: flags %v rebuild %+v, want %+v", w.Name, s.Flags(), got, w)
		}
	}
	s := readFlags(t, "-workload", "write", "-ops", "6")
	if s.Iters != 0 || s.Ops != 6 || s.Count != 8192 {
		t.Errorf("-workload write -ops 6 reads as iters=%d ops=%d count=%d, want 0/6/8192", s.Iters, s.Ops, s.Count)
	}
	if again := readFlags(t, s.Flags()...); !reflect.DeepEqual(again, s) {
		t.Errorf("flags %v read back as %+v, want %+v", s.Flags(), again, s)
	}
}

// readFlags reads hftsim's configuration flags as ScheduleFlags does.
func readFlags(t *testing.T, args ...string) Schedule {
	t.Helper()
	fs := flag.NewFlagSet("hftsim", flag.ContinueOnError)
	read := ScheduleFlags(fs)
	if err := fs.Parse(args); err != nil {
		t.Fatal(err)
	}
	s, err := read()
	if err != nil {
		t.Fatalf("%v: %v", args, err)
	}
	return s
}
