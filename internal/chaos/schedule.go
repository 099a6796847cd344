package chaos

import (
	"fmt"
	"math/rand"
	"strings"

	hft "repro"
)

// OpKind enumerates what a step does — the public Cluster API's live
// mutation surface, plus the checkpoint and observation commands of a
// scenario script.
type OpKind uint8

const (
	// OpFailPrimary failstops the primary's processor.
	OpFailPrimary OpKind = iota
	// OpFailBackup failstops backup Step.Backup (1-based).
	OpFailBackup
	// OpLink sets every inter-hypervisor link to Step.Bandwidth /
	// Step.Latency and drops each direction's next Step.Drop sends; a
	// zero parameter leaves that one unchanged (hft.LinkQuality).
	OpLink
	// OpAddBackup reintegrates a new backup by live state transfer.
	OpAddBackup
	// OpSaveRestore checkpoints the session, restores it, re-saves the
	// restored session and compares the two blobs byte for byte
	// (invariant 4); execution continues on the restored session.
	OpSaveRestore
	// OpSave checkpoints the session to the file Step.Path.
	OpSave
	// OpRestore replaces the session with the checkpoint in the file
	// Step.Path, re-saved and compared byte for byte as OpSaveRestore
	// does.
	OpRestore
	// OpSnapshot perturbs nothing: the step only records where it
	// landed.
	OpSnapshot
)

// opCommands names each OpKind by its scenario command.
var opCommands = [...]string{
	OpFailPrimary: "fail primary",
	OpFailBackup:  "fail backup",
	OpLink:        "link",
	OpAddBackup:   "addbackup",
	OpSaveRestore: "save-restore",
	OpSave:        "save",
	OpRestore:     "restore",
	OpSnapshot:    "snapshot",
}

// String returns the op's scenario command.
func (k OpKind) String() string {
	if int(k) < len(opCommands) {
		return opCommands[k]
	}
	return fmt.Sprintf("op(%d)", uint8(k))
}

// Coord is a replayable position in a run. Commit, when nonzero, names
// a cumulative epoch-commit ordinal — the protocol's natural, exactly
// reproducible pause coordinate. Otherwise For, when nonzero, advances
// that much virtual time past wherever the previous step left the
// session, and otherwise Time names an exact virtual time. The zero
// Coord is wherever the previous step left the session. The shrinker
// prefers commits: "commit #12" survives schedule edits that shift the
// timeline, where "t=3.7ms" may land mid-epoch.
type Coord struct {
	Commit uint64
	For    hft.Duration
	Time   hft.Duration
}

// Step is one operation at one coordinate.
type Step struct {
	At     Coord
	Op     OpKind
	Backup int // OpFailBackup target (1-based)
	// Bandwidth, Latency and Drop are OpLink's parameters.
	Bandwidth int64
	Latency   hft.Duration
	Drop      int
	// Path is OpSave's and OpRestore's checkpoint file.
	Path string
}

// String renders the step as its scenario commands.
func (s Step) String() string { return strings.Join(stepLines(s), " / ") }

// Schedule is a complete, self-contained run description: base
// configuration plus an ordered perturbation list. Everything needed
// to reconstruct the identical cluster is in here — no hidden state —
// which is what makes schedules shrinkable and emittable.
type Schedule struct {
	// Seed is the cluster's simulation seed.
	Seed int64
	// Workload names a shape (Shape). Iters, Ops and Count are its
	// sizes, all zero for the canonical shape (ParseWorkload); otherwise
	// they are the sizes the shape's guest reads, the rest zero.
	Workload          string
	Iters, Ops, Count uint32
	// Epoch is the epoch length in instructions.
	Epoch uint64
	// Protocol selects §2 (Old) or §4.3 (New).
	Protocol hft.Protocol
	// Link names the channel model: "ethernet" or "atm".
	Link string
	// Backups is the initial replica count t.
	Backups int
	// Window, when nonzero, runs the output-commit latency engine with
	// this acknowledgment-window depth; Adaptive additionally enables
	// output-triggered epoch boundaries. Zero Window = classic
	// lock-step protocol.
	Window   int
	Adaptive bool
	// Steps are applied in order; each advances the session to its
	// coordinate first (a coordinate already in the past applies
	// immediately).
	Steps []Step
}

// Shape resolves the schedule's workload shape.
func (s Schedule) Shape() (Workload, error) {
	if s.Iters|s.Ops|s.Count == 0 {
		return ParseWorkload(s.Workload)
	}
	return Shape(s.Workload, s.Iters, s.Ops, s.Count)
}

// LinkModel resolves the schedule's link name.
func (s Schedule) LinkModel() hft.LinkModel {
	if s.Link == "atm" {
		return hft.ATM155()
	}
	return hft.Ethernet10()
}

// String renders a one-line summary for logs: the replay flags, then
// each step's scenario commands.
func (s Schedule) String() string {
	var steps []string
	for _, st := range s.Steps {
		steps = append(steps, st.String())
	}
	return fmt.Sprintf("{%s: [%s]}", strings.Join(s.Flags(), " "), strings.Join(steps, "; "))
}

// Generator draw tables. Bounds are deliberate, not arbitrary:
//
//   - Link storms never drop messages and never push latency near the
//     50 ms failure-detection timeout: a generated storm must degrade,
//     not partition. A partition causes a spurious promotion with the
//     primary still alive — two acting coordinators — which the
//     simulation (correctly) reports as divergence. That is the
//     environment violating the paper's failstop assumption, not the
//     protocol violating its promises, so the generator stays inside
//     the assumption.
//   - Total failstops never exceed the initial backup count: the paper
//     tolerates t failures with t backups. (Reintegrated backups are
//     not credited — the joiner may still be in transit when a later
//     failstop lands.)
//   - Coordinates lean on commit ordinals (exactly replayable) over
//     virtual times, mirroring the shrinker's preference.
var (
	genEpochs      = []uint64{1024, 4096}
	genWindows     = []int{1, 2, 8}
	genBandwidths  = []int64{1_000_000, 2_000_000, 5_000_000, 10_000_000}
	genLatencies   = []hft.Duration{100 * hft.Microsecond, 500 * hft.Microsecond, 1 * hft.Millisecond, 2 * hft.Millisecond}
	genLinks       = []string{"ethernet", "atm"}
	genMaxSteps    = 5
	genMaxCommit   = uint64(48)
	genMaxTime     = 20 * hft.Millisecond
	genMaxAdds     = 2
	genMaxSaveRest = 1
)

// Generate draws one random schedule from rng. The same rng state
// always yields the same schedule — campaign reproducibility reduces
// to seed arithmetic.
func Generate(rng *rand.Rand) Schedule {
	shape := canonical[rng.Intn(len(canonical))].name

	s := Schedule{
		Seed:     1 + rng.Int63n(1<<31),
		Workload: shape,
		Epoch:    genEpochs[rng.Intn(len(genEpochs))],
		Protocol: hft.ProtocolOld,
		Link:     genLinks[rng.Intn(len(genLinks))],
		Backups:  1,
	}
	if rng.Intn(2) == 1 {
		s.Protocol = hft.ProtocolNew
	}
	// Mostly pairs (the paper's prototype); occasionally deeper sets.
	switch rng.Intn(6) {
	case 0:
		s.Backups = 2
	case 1:
		s.Backups = 3
	}
	// Half the runs exercise the output-commit engine: window depth
	// drawn from the interesting points (1 = classic output commit,
	// 2 = shallow pipeline, 8 = deep), boundaries fixed or adaptive.
	if rng.Intn(2) == 1 {
		s.Window = genWindows[rng.Intn(len(genWindows))]
		s.Adaptive = rng.Intn(2) == 1
	}

	restore := s.LinkModel().LinkParams()
	failBudget := s.Backups // total failstops (primary + backups)
	adds, saves := 0, 0
	n := rng.Intn(genMaxSteps + 1)
	for len(s.Steps) < n {
		st := Step{At: genCoord(rng)}
		switch rng.Intn(6) {
		case 0: // primary failstop
			if failBudget == 0 {
				continue
			}
			failBudget--
			st.Op = OpFailPrimary
		case 1: // backup failstop; may target an already-failed index
			if failBudget == 0 {
				continue
			}
			failBudget--
			st.Op = OpFailBackup
			st.Backup = 1 + rng.Intn(s.Backups+adds)
		case 2:
			st.Op = OpLink
			st.Bandwidth = genBandwidths[rng.Intn(len(genBandwidths))]
			st.Latency = genLatencies[rng.Intn(len(genLatencies))]
		case 3: // restore the configured link model
			st.Op, st.Bandwidth, st.Latency = OpLink, restore.BitsPerSecond, restore.Latency
		case 4:
			if adds >= genMaxAdds {
				continue
			}
			adds++
			st.Op = OpAddBackup
		case 5:
			if saves >= genMaxSaveRest {
				continue
			}
			saves++
			st.Op = OpSaveRestore
		}
		s.Steps = append(s.Steps, st)
	}
	return s
}

// genCoord draws a step coordinate: mostly commit ordinals, sometimes
// exact virtual times (which exercise the RunFor pause path and give
// the shrinker's coordinate-reduction phase something to reduce).
func genCoord(rng *rand.Rand) Coord {
	if rng.Intn(10) < 7 {
		return Coord{Commit: 1 + uint64(rng.Intn(int(genMaxCommit)))}
	}
	return Coord{Time: hft.Duration(1+rng.Int63n(int64(genMaxTime/hft.Millisecond))) * hft.Millisecond}
}
