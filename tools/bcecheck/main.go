// Command bcecheck holds the trace executor's hot loop to its shape
// where a timing gate cannot: it compiles internal/machine with the
// compiler's bounds-check report on and counts the checks that remain
// between the two marker comments in trace_exec.go,
//
//	// hot-loop:begin bounds-checks=N
//	// hot-loop:end
//
// failing unless the count is exactly the N pinned on the begin marker.
// A register-file or frame index that lost its proof, or cold code that
// moved into the loop, shows up as a number that has to be changed in
// review; a check that was removed has to be claimed the same way.
//
// Usage: go run ./tools/bcecheck (from the repository root)
package main

import (
	"fmt"
	"os"
	"os/exec"
	"regexp"
	"strconv"
	"strings"
)

const (
	pkg  = "./internal/machine"
	file = "internal/machine/trace_exec.go"
)

var (
	beginRE = regexp.MustCompile(`^\s*// hot-loop:begin bounds-checks=(\d+)\s*$`)
	endRE   = regexp.MustCompile(`^\s*// hot-loop:end\s*$`)
	foundRE = regexp.MustCompile(`trace_exec\.go:(\d+):\d+: Found Is(Slice)?InBounds`)
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "bcecheck:", err)
		os.Exit(1)
	}
}

func run() error {
	begin, end, pinned, err := markers()
	if err != nil {
		return err
	}
	// The go command replays a cached compile's diagnostics, so this
	// reports the same lines whether or not the package was rebuilt.
	out, err := exec.Command("go", "build", "-gcflags=-d=ssa/check_bce/debug=1", pkg).CombinedOutput()
	if err != nil {
		return fmt.Errorf("go build %s: %v\n%s", pkg, err, out)
	}
	var inLoop []string
	total := 0
	for _, line := range strings.Split(string(out), "\n") {
		m := foundRE.FindStringSubmatch(line)
		if m == nil {
			continue
		}
		total++
		if n, _ := strconv.Atoi(m[1]); n > begin && n < end {
			inLoop = append(inLoop, line)
		}
	}
	fmt.Printf("bcecheck: %s: %d bounds checks, %d in the hot loop (lines %d-%d), %d pinned\n",
		file, total, len(inLoop), begin, end, pinned)
	if len(inLoop) != pinned {
		return fmt.Errorf("the hot loop has %d bounds checks, its marker pins %d:\n%s",
			len(inLoop), pinned, strings.Join(inLoop, "\n"))
	}
	return nil
}

// markers finds the hot loop's delimiting comments and the pinned count.
func markers() (begin, end, pinned int, err error) {
	src, err := os.ReadFile(file)
	if err != nil {
		return 0, 0, 0, err
	}
	for n, line := range strings.Split(string(src), "\n") {
		if m := beginRE.FindStringSubmatch(line); m != nil && begin == 0 {
			begin = n + 1
			pinned, _ = strconv.Atoi(m[1])
		} else if endRE.MatchString(line) && begin != 0 && end == 0 {
			end = n + 1
		}
	}
	if begin == 0 || end == 0 {
		return 0, 0, 0, fmt.Errorf("%s: hot-loop:begin / hot-loop:end markers not found", file)
	}
	return begin, end, pinned, nil
}
