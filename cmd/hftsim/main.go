// Command hftsim runs one configured simulation of the fault-tolerant
// prototype and reports timing, protocol statistics and (optionally)
// failover behaviour. With -scenario it instead drives a LIVE cluster
// session from a command script: advance virtual time, failstop
// processors, degrade the link, take snapshots — interactively (pipe
// stdin) or from a file. With -campaign it runs the chaos engine: N
// seeded random perturbation schedules, every run checked against the
// replication invariants, violations automatically shrunk to minimal
// replayable scenario scripts.
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
// Scenario example (see runScenario for the command set):
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
	"flag"
	"fmt"
	"os"

	hft "repro" // the public facade lives at the module root
	"repro/internal/chaos"
)

func main() {
	var (
		workload = flag.String("workload", "cpu", "cpu, write, read, copy, echo or serve")
		iters    = flag.Uint("iters", 20000, "CPU workload iterations")
		ops      = flag.Uint("ops", 8, "disk workload operations")
		count    = flag.Uint("count", 8192, "bytes per disk operation")
		epoch    = flag.Uint64("epoch", 4096, "epoch length in instructions")
		protocol = flag.String("protocol", "old", "old (P2 waits) or new (§4.3)")
		link     = flag.String("link", "ethernet", "ethernet or atm")
		failAt   = flag.Float64("fail-at-ms", 0, "failstop the primary at this time (ms); 0 = no failure")
		bare     = flag.Bool("bare", false, "run on bare hardware only (the baseline)")
		seed     = flag.Int64("seed", 1, "simulation seed")
		backups  = flag.Int("backups", 1, "backup replicas (t-fault tolerance)")
		window   = flag.Int("window", 0, "output-commit window depth (0 = classic lock-step protocol)")
		adaptive = flag.Bool("adaptive", false, "output-triggered epoch boundaries (needs -window)")
		scenario = flag.String("scenario", "", "drive a live cluster from this command script (- = stdin)")

		campaign     = flag.Int("campaign", 0, "run a chaos campaign of N random schedules (0 = off)")
		campaignSeed = flag.Int64("campaign-seed", 1, "campaign master seed (run i replays independently)")
		campaignDir  = flag.String("campaign-dir", "", "write shrunk scenario artifacts here")
		parallel     = flag.Int("parallel", 0, "campaign worker count (0 = all cores, 1 = serial)")
	)
	flag.Parse()

	if *campaign > 0 {
		workers := *parallel
		if workers < 1 {
			workers = -1 // fleet scheduler: all cores
		}
		rep, err := chaos.RunCampaign(chaos.CampaignOptions{
			Runs:    *campaign,
			Seed:    *campaignSeed,
			Dir:     *campaignDir,
			Log:     os.Stdout,
			Workers: workers,
		})
		if err != nil {
			fmt.Fprintf(os.Stderr, "hftsim: campaign: %v\n", err)
			os.Exit(1)
		}
		if rep.Failed() {
			fmt.Printf("campaign FAILED: %d of %d runs violated invariants, digest %s\n", len(rep.Violations), rep.Runs, rep.Digest)
			os.Exit(1)
		}
		fmt.Printf("campaign passed: %d runs, all invariants held, digest %s\n", rep.Runs, rep.Digest)
		return
	}

	// The sizes apply where the shape has them; echo's terminal script,
	// serve's per-request compute and client population are canonical.
	shape, err := chaos.Shape(*workload, uint32(*iters), uint32(*ops), uint32(*count))
	if err != nil {
		fmt.Fprintf(os.Stderr, "hftsim: %v\n", err)
		os.Exit(2)
	}

	var proto hft.Protocol
	switch *protocol {
	case "old":
		proto = hft.ProtocolOld
	case "new":
		proto = hft.ProtocolNew
	default:
		fmt.Fprintf(os.Stderr, "hftsim: unknown protocol %q\n", *protocol)
		os.Exit(2)
	}
	var linkModel hft.LinkModel
	switch *link {
	case "ethernet":
		linkModel = hft.Ethernet10()
	case "atm":
		linkModel = hft.ATM155()
	default:
		fmt.Fprintf(os.Stderr, "hftsim: unknown link %q\n", *link)
		os.Exit(2)
	}

	opts := shape.ClusterOptions(*seed, *epoch, proto, linkModel, *backups)
	if *window > 0 {
		opts = append(opts, hft.WithOutputCommit(hft.OutputCommit{Window: *window, Adaptive: *adaptive}))
	}
	if *failAt > 0 {
		opts = append(opts, hft.WithFailPrimaryAt(hft.Duration(*failAt*float64(hft.Millisecond))))
	}

	if *scenario != "" {
		if *bare {
			fmt.Fprintln(os.Stderr, "hftsim: -bare and -scenario are mutually exclusive (a scenario drives a replicated cluster)")
			os.Exit(2)
		}
		script, isStdin, err := openScenario(*scenario)
		if err != nil {
			fmt.Fprintf(os.Stderr, "hftsim: -scenario: %v\n", err)
			os.Exit(1)
		}
		if !isStdin {
			defer script.Close()
		}
		cluster, err := hft.NewCluster(opts...)
		if err != nil {
			fmt.Fprintf(os.Stderr, "hftsim: %v\n", err)
			os.Exit(1)
		}
		defer cluster.Close()
		// `check` applies the campaign's oracle against the bare run of
		// the same shape — an emitted chaos reproduction exits 1 while
		// its bug is alive and 0 once fixed.
		verify := func(c *hft.Cluster, res hft.Result) error {
			bare, err := chaos.Bare(shape, *seed, *epoch)
			if err != nil {
				return err
			}
			lat, _ := c.ServiceLatencies()
			if v := chaos.Check(shape, bare, res, lat); v != nil {
				return fmt.Errorf("%v violation: %s", v.Kind, v.Detail)
			}
			return nil
		}
		if err := runScenario(cluster, script, true, verify); err != nil {
			fmt.Fprintf(os.Stderr, "hftsim: scenario: %v\n", err)
			os.Exit(1)
		}
		return
	}

	bareRes, err := chaos.Bare(shape, *seed, *epoch)
	if err != nil {
		fmt.Fprintf(os.Stderr, "hftsim: %v\n", err)
		os.Exit(1)
	}
	fmt.Printf("bare hardware:   %-12v console=%q checksum=%#x\n",
		bareRes.Time, bareRes.Console, bareRes.Checksum)
	if *bare {
		return
	}

	c, err := hft.NewCluster(opts...)
	if err != nil {
		fmt.Fprintf(os.Stderr, "hftsim: %v\n", err)
		os.Exit(1)
	}
	defer c.Close()
	repl, err := c.Wait(context.Background())
	if err != nil {
		fmt.Fprintf(os.Stderr, "hftsim: replicated run: %v\n", err)
		os.Exit(1)
	}
	fmt.Printf("replicated:      %-12v console=%q checksum=%#x\n",
		repl.Time, repl.Console, repl.Checksum)
	fmt.Printf("normalized perf: %.3f\n", float64(repl.Time)/float64(bareRes.Time))
	fmt.Printf("protocol:        %s, epoch %d, link %s\n", *protocol, *epoch, *link)
	fmt.Printf("messages sent:   %d\n", repl.MessagesSent)
	if repl.Promoted {
		fmt.Printf("FAILOVER:        backup promoted; %d uncertain interrupt(s) synthesized (P7)\n",
			repl.UncertainSynthesized)
	}
	lat, _ := c.ServiceLatencies()
	if v := chaos.Check(shape, bareRes, repl, lat); v != nil {
		fmt.Printf("ERROR:           %v\n", v)
		os.Exit(1)
	}
}
