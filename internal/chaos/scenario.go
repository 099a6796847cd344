package chaos

import (
	"flag"
	"fmt"
	"strconv"
	"strings"
	"time"

	hft "repro"
)

// Scenario renders a schedule as a scenario script — the shrinker's
// output artifact, which hftsim replays through Execute. The header
// comments carry everything the script itself cannot: the full replay
// command line (scripts have no configuration syntax; the cluster
// comes from flags) and the violation being reproduced. The footer
// (`wait`, `check`) says what every replay does: run to completion and
// apply the campaign's own oracle (Check) against the bare baseline,
// so the replay itself fails loudly — exit status 1 — while the bug is
// alive, and passes once it is fixed.
func Scenario(s Schedule, v *Violation, note string) string {
	var b strings.Builder
	b.WriteString("# chaos reproduction")
	if note != "" {
		fmt.Fprintf(&b, " (%s)", note)
	}
	b.WriteString("\n")
	if v != nil {
		fmt.Fprintf(&b, "# violates: %v\n", v)
	}
	fmt.Fprintf(&b, "# replay: hftsim %s -scenario <this file>\n", strings.Join(s.Flags(), " "))
	b.WriteString("\n")
	for _, st := range s.Steps {
		for _, line := range stepLines(st) {
			b.WriteString(line + "\n")
		}
	}
	b.WriteString("wait\ncheck\n")
	return b.String()
}

// stepLines renders one step: the advance to its coordinate (none for
// the zero Coord), then the operation.
func stepLines(st Step) []string {
	var lines []string
	switch {
	case st.At.Commit > 0:
		lines = append(lines, fmt.Sprintf("until-commit %d", st.At.Commit))
	case st.At.For > 0:
		lines = append(lines, fmt.Sprintf("run %dns", int64(st.At.For)))
	case st.At.Time > 0:
		lines = append(lines, fmt.Sprintf("run-to %dns", int64(st.At.Time)))
	}
	op := st.Op.String()
	switch st.Op {
	case OpFailBackup:
		op += fmt.Sprintf(" %d", st.Backup)
	case OpLink:
		if st.Bandwidth != 0 {
			op += fmt.Sprintf(" bw=%d", st.Bandwidth)
		}
		if st.Latency != 0 {
			op += fmt.Sprintf(" lat=%dns", int64(st.Latency))
		}
		if st.Drop != 0 {
			op += fmt.Sprintf(" drop=%d", st.Drop)
		}
	case OpSave, OpRestore:
		op += " " + st.Path
	}
	return append(lines, op)
}

// CommandCount counts the commands a scenario body would contain
// (excluding the wait/check footer) — the acceptance metric for "shrunk
// to a <=N-command scenario".
func CommandCount(s Schedule) int {
	n := 0
	for _, st := range s.Steps {
		n += len(stepLines(st))
	}
	return n
}

// ParseScenario parses a scenario script into the steps it names. A
// script is a schedule's text form, one command per line
// (# starts a comment). An advance command names the next step's
// coordinate; the command after it is that step's operation:
//
//	until-commit <n>      Coord{Commit: n}
//	run <d>               Coord{For: d}     (Go duration syntax: 20ms, 1.5s)
//	run-to <t>            Coord{Time: t}
//	fail primary          OpFailPrimary
//	fail backup <i>       OpFailBackup, Backup i (1-based)
//	link bw=<bps> lat=<d> drop=<n>
//	                      OpLink; each parameter optional
//	addbackup             OpAddBackup
//	save-restore          OpSaveRestore (in memory)
//	save <path>           OpSave
//	restore <path>        OpRestore
//	snapshot              OpSnapshot
//	wait, check           the footer: only wait or check may follow
//
// An operation with no advance before it runs where the previous step
// left the session (the zero Coord), and an advance with no operation
// after it is a snapshot step. The footer is optional: Execute always
// runs to completion and applies Check.
//
// ParseScenario is the inverse of Scenario's body:
// ParseScenario(Scenario(s, v, note)) returns s.Steps. The whole script
// is parsed before anything runs, so a bad line fails before any
// virtual time passes.
func ParseScenario(script string) ([]Step, error) {
	var (
		steps  []Step
		at     *Coord // the pending advance
		footer bool
	)
	flush := func() {
		if at != nil {
			steps = append(steps, Step{At: *at, Op: OpSnapshot})
			at = nil
		}
	}
	for i, line := range strings.Split(script, "\n") {
		if c := strings.IndexByte(line, '#'); c >= 0 {
			line = line[:c]
		}
		f := strings.Fields(line)
		if len(f) == 0 {
			continue
		}
		adv, st, err := parseCommand(f)
		if err == nil && footer && (adv != nil || st != nil) {
			err = fmt.Errorf("nothing but wait or check may follow them")
		}
		if err != nil {
			return nil, fmt.Errorf("line %d %q: %w", i+1, strings.TrimSpace(line), err)
		}
		switch {
		case adv != nil:
			flush()
			at = adv
		case st != nil:
			if at != nil {
				st.At, at = *at, nil
			}
			steps = append(steps, *st)
		default:
			flush()
			footer = true
		}
	}
	flush()
	return steps, nil
}

// parseCommand parses one command's fields into an advance or an
// operation (at the zero Coord); both are nil for the footer.
func parseCommand(f []string) (*Coord, *Step, error) {
	switch f[0] {
	case "until-commit", "run", "run-to":
		if len(f) != 2 {
			return nil, nil, fmt.Errorf("%s takes one argument", f[0])
		}
		var c Coord
		var err error
		switch f[0] {
		case "until-commit":
			c.Commit, err = strconv.ParseUint(f[1], 10, 64)
		case "run":
			c.For, err = parseDuration(f[1])
		default:
			c.Time, err = parseDuration(f[1])
		}
		return &c, nil, err
	case "until-epoch":
		return nil, nil, fmt.Errorf("until-epoch is gone (the epoch counter resets at a promotion): use until-commit <n>, the cumulative commit ordinal")
	case "wait", "check":
		if len(f) != 1 {
			return nil, nil, fmt.Errorf("%s takes no arguments", f[0])
		}
		return nil, nil, nil
	}
	for k, name := range opCommands {
		words := strings.Fields(name)
		if len(f) < len(words) || strings.Join(f[:len(words)], " ") != name {
			continue
		}
		st, args := &Step{Op: OpKind(k)}, f[len(words):]
		var err error
		switch st.Op {
		case OpFailBackup, OpSave, OpRestore:
			if len(args) != 1 {
				return nil, nil, fmt.Errorf("%s takes one argument", name)
			}
			if st.Op != OpFailBackup {
				st.Path = args[0]
			} else if st.Backup, err = strconv.Atoi(args[0]); err == nil && st.Backup < 1 {
				err = fmt.Errorf("backups count from 1")
			}
		case OpLink:
			for _, kv := range args {
				if err == nil {
					err = parseLink(st, kv)
				}
			}
		default:
			if len(args) > 0 {
				err = fmt.Errorf("%s takes no arguments", name)
			}
		}
		return nil, st, err
	}
	return nil, nil, fmt.Errorf("unknown command %q", strings.Join(f, " "))
}

// parseLink sets one of a link command's k=v parameters.
func parseLink(st *Step, kv string) (err error) {
	k, v, _ := strings.Cut(kv, "=")
	switch k {
	case "bw":
		st.Bandwidth, err = strconv.ParseInt(v, 10, 64)
		if err == nil && st.Bandwidth < 0 {
			err = fmt.Errorf("negative bandwidth")
		}
	case "lat":
		st.Latency, err = parseDuration(v)
	case "drop":
		st.Drop, err = strconv.Atoi(v)
		if err == nil && st.Drop < 0 {
			err = fmt.Errorf("negative drop count")
		}
	default:
		err = fmt.Errorf("unknown parameter %q (want bw=, lat= or drop=)", kv)
	}
	return err
}

// parseDuration parses Go duration syntax into simulated time
// (1 ns wall = 1 ns virtual).
func parseDuration(s string) (hft.Duration, error) {
	d, err := time.ParseDuration(s)
	if err == nil && d < 0 {
		err = fmt.Errorf("negative duration %v", d)
	}
	return hft.Duration(d), err
}

// Flags renders the hftsim flags that reconstruct the schedule's base
// configuration — including every size the shape's guest reads, so a
// replay builds the byte-identical cluster even though hftsim's sizing
// flags default differently. ScheduleFlags reads them back.
func (s Schedule) Flags() []string {
	flags := []string{
		"-workload", s.Workload,
		"-seed", fmt.Sprint(s.Seed),
		"-epoch", fmt.Sprint(s.Epoch),
		"-protocol", s.Protocol.String(),
		"-link", s.Link,
		"-backups", fmt.Sprint(s.Backups),
	}
	if s.Window > 0 {
		flags = append(flags, "-window", fmt.Sprint(s.Window))
		if s.Adaptive {
			flags = append(flags, "-adaptive")
		}
	}
	w, _ := s.Shape()
	for i, v := range []uint32{w.Guest.Iters, w.Guest.Ops, w.Guest.Count} {
		if v > 0 {
			flags = append(flags, []string{"-iters", "-ops", "-count"}[i], fmt.Sprint(v))
		}
	}
	return flags
}

// ScheduleFlags registers hftsim's configuration flags on fs, with
// hftsim's defaults, and returns the function that reads them, once fs
// has parsed, as a Schedule without steps. It is Flags' inverse: the
// flags Flags renders read back as the schedule's base.
func ScheduleFlags(fs *flag.FlagSet) func() (Schedule, error) {
	var (
		workload = fs.String("workload", "cpu", "cpu, write, read, copy, echo or serve")
		iters    = fs.Uint("iters", 20000, "CPU workload iterations")
		ops      = fs.Uint("ops", 8, "disk workload operations")
		count    = fs.Uint("count", 8192, "bytes per disk operation")
		epoch    = fs.Uint64("epoch", 4096, "epoch length in instructions")
		protocol = fs.String("protocol", "old", "old (P2 waits) or new (§4.3)")
		link     = fs.String("link", "ethernet", "ethernet or atm")
		seed     = fs.Int64("seed", 1, "simulation seed")
		backups  = fs.Int("backups", 1, "backup replicas (t-fault tolerance)")
		window   = fs.Int("window", 0, "output-commit window depth (0 = classic lock-step protocol)")
		adaptive = fs.Bool("adaptive", false, "output-triggered epoch boundaries (needs -window)")
	)
	return func() (Schedule, error) {
		s := Schedule{
			Seed: *seed, Workload: *workload, Epoch: *epoch,
			Link: *link, Backups: *backups, Window: max(*window, 0),
		}
		s.Adaptive = *adaptive && s.Window > 0
		switch *protocol {
		case "old":
		case "new":
			s.Protocol = hft.ProtocolNew
		default:
			return Schedule{}, fmt.Errorf("unknown protocol %q", *protocol)
		}
		if *link != "ethernet" && *link != "atm" {
			return Schedule{}, fmt.Errorf("unknown link %q", *link)
		}
		// The sizes apply where the shape has them; echo's terminal
		// script, serve's per-request compute and client population are
		// canonical.
		w, err := Shape(*workload, uint32(*iters), uint32(*ops), uint32(*count))
		if err != nil {
			return Schedule{}, err
		}
		if canon, _ := ParseWorkload(*workload); w.Guest != canon.Guest { // Shape accepted the name
			s.Iters, s.Ops, s.Count = w.Guest.Iters, w.Guest.Ops, w.Guest.Count
			if s.Iters|s.Ops|s.Count == 0 {
				return Schedule{}, fmt.Errorf("workload %q needs a positive size", *workload)
			}
		}
		return s, nil
	}
}
