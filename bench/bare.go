package main

// The bare single-node baseline is the one thing the benchmark needs
// that the non-legacy public surface does not offer (hft.RunBare is
// legacy and cannot express client load); this file is the only place
// that reaches below hft for it.

import (
	"fmt"

	hft "repro"
	"repro/internal/chaos"
	"repro/internal/clientsim"
	"repro/internal/console"
	"repro/internal/scsi"
	"repro/internal/session"
	"repro/internal/sim"
)

// bareSpec describes one unreplicated reference run.
type bareSpec struct {
	seed       int64
	guest      hft.Workload
	load       *hft.ClientLoad
	extraDisks int
	terminal   []hft.TerminalInput
}

// bareRun is what the replicated runs are checked against and
// normalised by.
type bareRun struct {
	time     hft.Duration
	checksum uint32
	console  string
	replies  string
}

// bareCyclesPerSecond is the bare machine's rate: it retires one
// instruction per 20 ns cycle, waiting included, so its instruction
// count is its virtual time at 50 MIPS.
const bareCyclesPerSecond = 50e6

func runBare(s bareSpec) (bareRun, error) {
	o := session.Options{
		Seed:       s.seed,
		Bare:       true,
		Program:    session.WorkloadProgram(s.guest),
		ExtraDisks: make([]scsi.DiskConfig, s.extraDisks),
	}
	for _, in := range s.terminal {
		o.Terminal = append(o.Terminal, console.Input{At: sim.Time(in.At), Data: []byte(in.Data)})
	}
	if cl := s.load; cl != nil {
		o.ClientLoad = &clientsim.Config{
			Clients:      cl.Clients,
			Requests:     int(s.guest.Ops),
			PayloadWords: cl.PayloadWords,
			Start:        sim.Time(cl.Start),
			MeanGap:      sim.Time(cl.MeanGap),
			Timeout:      sim.Time(cl.Timeout),
		}
	}
	e := session.New(o)
	defer e.Close()
	if err := e.RunToCompletion(nil); err != nil {
		return bareRun{}, fmt.Errorf("bare run: %w", err)
	}
	r, err := e.Result()
	if err != nil {
		return bareRun{}, fmt.Errorf("bare run: %w", err)
	}
	if r.Guest.Panic != 0 {
		return bareRun{}, fmt.Errorf("bare run: guest panic %#x", r.Guest.Panic)
	}
	return bareRun{time: r.Time, checksum: r.Guest.Checksum, console: r.Console, replies: r.NetReplies}, nil
}

// bareFleetTime sums the bare completion times of the guest work a
// fleet's shards run: shard i executes chaos.ScheduleAt(seed, i).
func bareFleetTime(seed int64, shards int) (hft.Duration, error) {
	var total hft.Duration
	for i := 0; i < shards; i++ {
		s := chaos.ScheduleAt(seed, i)
		shape, err := chaos.ParseWorkload(s.Workload)
		if err != nil {
			return 0, err
		}
		b, err := runBare(bareSpec{
			seed:       s.Seed,
			guest:      shape.Guest,
			load:       shape.ClientLoad,
			extraDisks: shape.ExtraDisks,
			terminal:   shape.Terminal,
		})
		if err != nil {
			return 0, fmt.Errorf("shard %d: %w", i, err)
		}
		total += b.time
	}
	return total, nil
}
