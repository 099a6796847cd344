// Command hftsim runs one configured simulation of the fault-tolerant
// prototype and reports timing, protocol statistics and (optionally)
// failover behaviour. With -scenario it instead runs a scenario script
// — a chaos schedule's text form (chaos.ParseScenario lists the
// commands): advance virtual time, failstop processors, degrade the
// link, take checkpoints — from a file or stdin. With -campaign it runs
// the chaos engine: N seeded random perturbation schedules, every run
// checked against the replication invariants, violations automatically
// shrunk to minimal replayable scenario scripts.
//
// Usage:
//
//	hftsim -workload cpu|write|read|copy|echo|serve [-iters N] [-ops N]
//	       [-count N] [-epoch N] [-protocol old|new]
//	       [-link ethernet|atm] [-fail-at-ms T] [-bare] [-seed N]
//	       [-backups N] [-window N] [-adaptive] [-scenario FILE|-]
//	       [-campaign N] [-campaign-seed N] [-campaign-dir DIR]
//	       [-parallel N]
//
// The copy, echo and serve workloads run with canonical device
// configurations (a second disk, a scripted terminal input, a simulated
// client population).
//
// A scenario runs through chaos.Execute, the campaign's own executor,
// so a replayed reproduction is exactly the recorded run. The whole
// script is parsed first (a bad line is exit 2 before anything runs); a
// step that lands after the workload completed is skipped; and every
// run goes on to completion and ends checked against the bare run with
// the campaign's oracle — exit 1 on a violation, whether or not the
// script ends in `wait` / `check`:
//
//	hftsim -workload write -ops 6 -scenario - <<'EOF'
//	run 20ms
//	link bw=1000000 lat=500us     # degrade to 1 Mbps mid-run
//	run 20ms
//	fail primary                  # failstop; the backup takes over
//	wait
//	check                         # exit 1 unless the run matches bare
//	EOF
//
// Campaign example (nightly CI runs exactly this):
//
//	hftsim -campaign 500 -campaign-seed 19951203 -campaign-dir ./chaos -parallel 0
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"

	hft "repro" // the public facade lives at the module root
	"repro/internal/chaos"
)

func main() { os.Exit(run(os.Args[1:], os.Stdin, os.Stdout, os.Stderr)) }

// run is main's body with a return code: 0 on success and on -h, 1
// when a run fails or violates an invariant, 2 on a bad flag or script.
func run(args []string, stdin io.Reader, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("hftsim", flag.ContinueOnError)
	fs.SetOutput(stderr)
	schedule := chaos.ScheduleFlags(fs)
	var (
		failAt   = fs.Float64("fail-at-ms", 0, "failstop the primary at this time (ms); 0 = no failure")
		bare     = fs.Bool("bare", false, "run on bare hardware only (the baseline)")
		scenario = fs.String("scenario", "", "drive a live cluster from this command script (- = stdin)")

		campaign     = fs.Int("campaign", 0, "run a chaos campaign of N random schedules (0 = off)")
		campaignSeed = fs.Int64("campaign-seed", 1, "campaign master seed (run i replays independently)")
		campaignDir  = fs.String("campaign-dir", "", "write shrunk scenario artifacts here")
		parallel     = fs.Int("parallel", 0, "campaign worker count (< 1 = all cores, 1 = serial)")
	)
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}
	fail := func(code int, format string, a ...any) int {
		fmt.Fprintf(stderr, "hftsim: "+format+"\n", a...)
		return code
	}

	if *campaign > 0 {
		rep, err := chaos.RunCampaign(chaos.CampaignOptions{
			Runs:    *campaign,
			Seed:    *campaignSeed,
			Log:     stdout,
			Workers: *parallel,
		})
		if err != nil {
			return fail(1, "campaign: %v", err)
		}
		if err := saveScenarios(*campaignDir, rep.Violations, stdout); err != nil {
			return fail(1, "campaign: %v", err)
		}
		if rep.Failed() {
			fmt.Fprintf(stdout, "campaign FAILED: %d of %d runs violated invariants, digest %s\n", len(rep.Violations), len(rep.Results), rep.Digest)
			return 1
		}
		fmt.Fprintf(stdout, "campaign passed: %d runs, all invariants held, digest %s\n", len(rep.Results), rep.Digest)
		return 0
	}

	s, err := schedule()
	if err != nil {
		return fail(2, "%v", err)
	}
	if *scenario != "" {
		if *bare {
			return fail(2, "-bare and -scenario are mutually exclusive (a scenario drives a replicated cluster)")
		}
		var script []byte
		if *scenario == "-" {
			script, err = io.ReadAll(stdin)
		} else {
			script, err = os.ReadFile(*scenario)
		}
		if err != nil {
			return fail(1, "-scenario: %v", err)
		}
		if s.Steps, err = chaos.ParseScenario(string(script)); err != nil {
			return fail(2, "scenario: %v", err)
		}
		return runScenario(s, stdout)
	}

	shape, _ := s.Shape() // the flags validated it
	bareRes, err := chaos.Bare(shape, s.Seed, s.Epoch)
	if err != nil {
		return fail(1, "%v", err)
	}
	fmt.Fprintf(stdout, "bare hardware:   %-12v console=%q checksum=%#x\n",
		bareRes.Time, bareRes.Console, bareRes.Checksum)
	if *bare {
		return 0
	}

	opts := s.ClusterOptions(shape)
	if *failAt > 0 {
		opts = append(opts, hft.WithFailPrimaryAt(hft.Duration(*failAt*float64(hft.Millisecond))))
	}
	c, err := hft.NewCluster(opts...)
	if err != nil {
		return fail(1, "%v", err)
	}
	defer c.Close()
	repl, err := c.Wait(context.Background())
	if err != nil {
		return fail(1, "replicated run: %v", err)
	}
	fmt.Fprintf(stdout, "replicated:      %-12v console=%q checksum=%#x\n",
		repl.Time, repl.Console, repl.Checksum)
	fmt.Fprintf(stdout, "normalized perf: %.3f\n", float64(repl.Time)/float64(bareRes.Time))
	fmt.Fprintf(stdout, "protocol:        %s, epoch %d, link %s\n", s.Protocol, s.Epoch, s.Link)
	fmt.Fprintf(stdout, "messages sent:   %d\n", repl.MessagesSent)
	if repl.Promoted {
		fmt.Fprintf(stdout, "FAILOVER:        backup promoted; %d uncertain interrupt(s) synthesized (P7)\n",
			repl.UncertainSynthesized)
	}
	lat, _ := c.ServiceLatencies()
	if v := chaos.Check(shape, bareRes, repl, lat); v != nil {
		fmt.Fprintf(stdout, "ERROR:           %v\n", v)
		return 1
	}
	return 0
}
