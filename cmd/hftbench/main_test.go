package main

import (
	"bytes"
	"os"
	"regexp"
	"testing"
)

// TestAllGolden pins the paper's whole §4 — `hftbench -all -json` at
// quick scale — to the committed golden, serially and on four workers:
// every simulation is deterministic and results are slotted by index,
// so the only byte that may differ is the reported worker count.
func TestAllGolden(t *testing.T) {
	want, err := os.ReadFile("../../testdata/hftbench_quick.golden.json")
	if err != nil {
		t.Fatal(err)
	}
	parallel := regexp.MustCompile(`(?m)^  "parallel": \d+,\n`)
	want = parallel.ReplaceAll(want, nil)
	for _, workers := range []string{"1", "4"} {
		var out bytes.Buffer
		if rc := run([]string{"-all", "-json", "-parallel", workers}, &out); rc != 0 {
			t.Fatalf("-parallel %s: exit code %d", workers, rc)
		}
		if got := parallel.ReplaceAll(out.Bytes(), nil); !bytes.Equal(got, want) {
			t.Errorf("-parallel %s: -all -json differs from testdata/hftbench_quick.golden.json:\n%s", workers, got)
		}
	}
}
