package chaos

import (
	"fmt"
	"strings"

	hft "repro"
)

// Scenario renders a schedule as an hftsim scenario script — the
// shrinker's output artifact. The header comments carry everything the
// script itself cannot: the full replay command line (scenario scripts
// deliberately have no configuration syntax; the cluster comes from
// flags) and the violation being reproduced. The body is one command
// per step, and the footer (`wait`, `check`) runs to completion and
// applies the campaign's own oracle (Check) against the bare baseline,
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
		b.WriteString(stepCommands(s, st))
	}
	b.WriteString("wait\ncheck\n")
	return b.String()
}

// Flags renders the hftsim flags that reconstruct the schedule's base
// configuration — including every size the canonical shape's guest
// reads, so a replay builds the byte-identical cluster even though
// hftsim's sizing flags default differently.
func (s Schedule) Flags() []string {
	proto := "old"
	if s.Protocol == hft.ProtocolNew {
		proto = "new"
	}
	flags := []string{
		"-workload", s.Workload,
		"-seed", fmt.Sprint(s.Seed),
		"-epoch", fmt.Sprint(s.Epoch),
		"-protocol", proto,
		"-link", s.Link,
		"-backups", fmt.Sprint(s.Backups),
	}
	if s.Window > 0 {
		flags = append(flags, "-window", fmt.Sprint(s.Window))
		if s.Adaptive {
			flags = append(flags, "-adaptive")
		}
	}
	w, _ := ParseWorkload(s.Workload)
	for i, v := range []uint32{w.Guest.Iters, w.Guest.Ops, w.Guest.Count} {
		if v > 0 {
			flags = append(flags, []string{"-iters", "-ops", "-count"}[i], fmt.Sprint(v))
		}
	}
	return flags
}

// stepCommands renders one step: an advance to its coordinate, then
// the perturbation command.
func stepCommands(s Schedule, st Step) string {
	var b strings.Builder
	if st.At.Commit > 0 {
		fmt.Fprintf(&b, "until-commit %d\n", st.At.Commit)
	} else {
		fmt.Fprintf(&b, "run-to %dns\n", int64(st.At.Time))
	}
	switch st.Op {
	case OpFailPrimary:
		b.WriteString("fail primary\n")
	case OpFailBackup:
		fmt.Fprintf(&b, "fail backup %d\n", st.Backup)
	case OpLinkDegrade:
		fmt.Fprintf(&b, "link bw=%d lat=%dns\n", st.Bandwidth, int64(st.Latency))
	case OpLinkRestore:
		p := s.LinkModel().LinkParams()
		fmt.Fprintf(&b, "link bw=%d lat=%dns\n", p.BitsPerSecond, int64(p.Latency))
	case OpAddBackup:
		b.WriteString("addbackup\n")
	case OpSaveRestore:
		b.WriteString("save chaos.ckpt\nrestore chaos.ckpt\n")
	}
	return b.String()
}

// CommandCount counts the perturbation/advance commands a scenario
// body would contain (excluding the wait/check footer) — the
// acceptance metric for "shrunk to a <=N-command scenario".
func CommandCount(s Schedule) int {
	n := 0
	for _, st := range s.Steps {
		n += 2 // advance + op
		if st.Op == OpSaveRestore {
			n++ // save + restore are two commands
		}
	}
	return n
}
