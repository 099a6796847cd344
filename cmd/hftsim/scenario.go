package main

import (
	"bufio"
	"context"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"
	"time"

	hft "repro"
	"repro/internal/chaos"
)

// runScenario drives a live cluster from a command script — the
// interactive counterpart of the one-shot mode. Commands, one per line
// (# starts a comment):
//
//	run <duration>        advance virtual time (e.g. run 20ms, run 1.5s)
//	run-to <time>         advance to an absolute virtual time (no-op if past)
//	until-epoch <n>       advance until the coordinator commits epoch n
//	until-commit <n>      advance until cumulative commit ordinal n — the
//	                      replayable coordinate chaos scenarios use (it
//	                      survives failovers; the epoch counter resets)
//	fail primary          failstop the primary now
//	fail backup <i>       failstop backup i (1-based) now
//	addbackup             reintegrate a new backup by live state transfer
//	save <path>           checkpoint the session to a file
//	restore <path>        replace the session with a restored checkpoint;
//	                      fails unless re-saving it reproduces the file
//	                      byte for byte (chaos.RoundTrip, invariant 4)
//	link bw=<bps> lat=<duration> drop=<n>
//	                      degrade the hypervisor links mid-run
//	snapshot              print the current session state
//	wait                  run to completion and print the result
//	check                 verify the completed run against the bare
//	                      baseline with the campaign's oracle
//	                      (chaos.Check); a violation fails the
//	                      scenario with exit 1
//
// Events (epoch commits are summarized; everything else prints as it
// happens) stream to stdout while the scenario runs.
func runScenario(cluster *hft.Cluster, script io.Reader, echo bool, verify func(*hft.Cluster, hft.Result) error) error {
	st := &scenarioState{epochs: new(int), verify: verify}
	st.attach(cluster)

	sc := bufio.NewScanner(script)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if i := strings.IndexByte(line, '#'); i >= 0 {
			line = strings.TrimSpace(line[:i])
		}
		if line == "" {
			continue
		}
		if echo {
			fmt.Printf("> %s\n", line)
		}
		if err := st.command(line); err != nil {
			return err
		}
		// Let the event pump catch up so output interleaves readably.
		time.Sleep(2 * time.Millisecond)
	}
	if err := sc.Err(); err != nil {
		return err
	}
	final := st.cluster.Snapshot().Now
	st.detach()
	fmt.Printf("scenario finished at %v after %d epoch commits\n", final, *st.epochs)
	return nil
}

// scenarioState holds the live cluster plus its event pump; `restore`
// swaps both for a session reconstructed from a checkpoint.
type scenarioState struct {
	cluster *hft.Cluster
	epochs  *int
	pumped  chan struct{}
	verify  func(*hft.Cluster, hft.Result) error // `check`'s oracle
}

// attach subscribes the event pump to a (new) cluster.
func (st *scenarioState) attach(c *hft.Cluster) {
	st.cluster = c
	events := c.Events()
	done := make(chan struct{})
	st.pumped = done
	epochs := st.epochs
	go func() {
		defer close(done)
		for ev := range events {
			if ev.Kind == hft.EventEpochCommitted || ev.Kind == hft.EventBackupEpoch ||
				ev.Kind == hft.EventDiskOp {
				if ev.Kind == hft.EventEpochCommitted {
					*epochs++
				}
				continue // too chatty to print individually
			}
			fmt.Printf("  | %v\n", ev)
		}
	}()
}

// detach closes the current cluster and waits for its pump to drain.
func (st *scenarioState) detach() {
	st.cluster.Close()
	<-st.pumped
}

// command executes one line.
func (st *scenarioState) command(line string) error {
	cluster := st.cluster
	fields := strings.Fields(line)
	switch fields[0] {
	case "run":
		if len(fields) != 2 {
			return fmt.Errorf("usage: run <duration>")
		}
		d, err := parseSimDuration(fields[1])
		if err != nil {
			return err
		}
		snap, err := cluster.RunFor(d)
		if err != nil {
			return err
		}
		fmt.Printf("  advanced to %v (epoch %d, done=%v)\n", snap.Now, snap.Epochs, snap.Done)
	case "run-to":
		if len(fields) != 2 {
			return fmt.Errorf("usage: run-to <time>")
		}
		target, err := parseSimDuration(fields[1])
		if err != nil {
			return err
		}
		if now := cluster.Now(); target > now {
			snap, err := cluster.RunFor(target - now)
			if err != nil {
				return err
			}
			fmt.Printf("  advanced to %v (commit %d, done=%v)\n", snap.Now, snap.Commits, snap.Done)
		}
	case "until-commit":
		if len(fields) != 2 {
			return fmt.Errorf("usage: until-commit <n>")
		}
		n, err := strconv.ParseUint(fields[1], 10, 64)
		if err != nil {
			return err
		}
		snap, err := cluster.RunUntil(func(s hft.Snapshot) bool { return s.Commits >= n })
		if err != nil {
			return err
		}
		fmt.Printf("  paused at %v (commit %d, done=%v)\n", snap.Now, snap.Commits, snap.Done)
	case "until-epoch":
		if len(fields) != 2 {
			return fmt.Errorf("usage: until-epoch <n>")
		}
		n, err := strconv.ParseUint(fields[1], 10, 64)
		if err != nil {
			return err
		}
		snap, err := cluster.RunUntil(func(s hft.Snapshot) bool { return s.Epochs >= n })
		if err != nil {
			return err
		}
		fmt.Printf("  paused at %v (epoch %d, done=%v)\n", snap.Now, snap.Epochs, snap.Done)
	case "fail":
		if len(fields) >= 2 && fields[1] == "primary" {
			cluster.FailPrimary()
			return nil
		}
		if len(fields) == 3 && fields[1] == "backup" {
			i, err := strconv.Atoi(fields[2])
			if err != nil {
				return err
			}
			return cluster.FailBackup(i)
		}
		return fmt.Errorf("usage: fail primary | fail backup <i>")
	case "link":
		var q hft.LinkQuality
		for _, kv := range fields[1:] {
			k, v, ok := strings.Cut(kv, "=")
			if !ok {
				return fmt.Errorf("link: bad parameter %q (want k=v)", kv)
			}
			switch k {
			case "bw":
				bps, err := strconv.ParseInt(v, 10, 64)
				if err != nil {
					return err
				}
				q.BitsPerSecond = bps
			case "lat":
				d, err := parseSimDuration(v)
				if err != nil {
					return err
				}
				q.Latency = d
			case "drop":
				n, err := strconv.Atoi(v)
				if err != nil {
					return err
				}
				q.DropNext = n
			default:
				return fmt.Errorf("link: unknown parameter %q", k)
			}
		}
		return cluster.SetLinkQuality(q)
	case "addbackup":
		n, err := cluster.AddBackup()
		if err != nil {
			return err
		}
		fmt.Printf("  node%d joined by state transfer at %v\n", n, cluster.Now())
	case "save":
		if len(fields) != 2 {
			return fmt.Errorf("usage: save <path>")
		}
		f, err := os.Create(fields[1])
		if err != nil {
			return err
		}
		if err := cluster.Save(f); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
		fmt.Printf("  checkpointed at %v to %s\n", cluster.Now(), fields[1])
	case "restore":
		if len(fields) != 2 {
			return fmt.Errorf("usage: restore <path>")
		}
		blob, err := os.ReadFile(fields[1])
		if err != nil {
			return err
		}
		restored, err := chaos.RoundTrip(blob)
		if err != nil {
			return err
		}
		st.detach()
		st.attach(restored)
		fmt.Printf("  restored session at %v from %s (state verified, re-save byte-identical)\n", restored.Now(), fields[1])
	case "snapshot":
		s := cluster.Snapshot()
		fmt.Printf("  t=%v epoch=%d instr=%d acting=node%d promoted=%v done=%v\n",
			s.Now, s.Epochs, s.GuestInstructions, s.Acting, s.Promoted, s.Done)
		fmt.Printf("  msgs=%d acks=%d ints-forwarded=%d uncertain=%d disk-ops=%d console=%q\n",
			s.MessagesSent, s.AcksReceived, s.IntsForwarded, s.UncertainSynthesized, s.DiskOps, s.Console)
	case "wait":
		res, err := cluster.Wait(context.Background())
		if err != nil {
			return err
		}
		fmt.Printf("  completed at %v: checksum=%#x promoted=%v console=%q\n",
			res.Time, res.Checksum, res.Promoted, res.Console)
	case "check":
		res, err := cluster.Wait(context.Background())
		if err != nil {
			return fmt.Errorf("check: %w", err)
		}
		if err := st.verify(cluster, res); err != nil {
			return fmt.Errorf("check: %w", err)
		}
		fmt.Printf("  check passed: the run matches the bare run\n")
	default:
		return fmt.Errorf("unknown scenario command %q", fields[0])
	}
	return nil
}

// parseSimDuration parses Go duration syntax into simulated time
// (1 ns wall = 1 ns virtual).
func parseSimDuration(s string) (hft.Duration, error) {
	d, err := time.ParseDuration(s)
	if err != nil {
		return 0, err
	}
	if d < 0 {
		return 0, fmt.Errorf("negative duration %v", d)
	}
	return hft.Duration(d.Nanoseconds()), nil
}

// openScenario resolves the -scenario argument ("-" = stdin).
func openScenario(path string) (io.ReadCloser, bool, error) {
	if path == "-" {
		return os.Stdin, true, nil
	}
	f, err := os.Open(path)
	return f, false, err
}
