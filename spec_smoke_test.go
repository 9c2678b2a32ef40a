package repro

import (
	"os"
	"os/exec"
	"testing"
)

// TestSpecSmoke is the spec-path determinism gate: every cmd runs against
// its golden spec fixture (examples/specs/<cmd>.json) and must reproduce
// its committed golden output byte for byte — trace fingerprint line
// included. Same seed ⇒ same fingerprint, now across the Spec path too;
// CI runs the same check as a dedicated job.
//
// Regenerate a golden after an intentional behavior change with e.g.
//
//	go run ./cmd/fabricbench -spec examples/specs/fabricbench.json \
//	    > examples/specs/fabricbench.golden
//
// (scenario pins -j 2: its summary line reports the worker count).
func TestSpecSmoke(t *testing.T) {
	cases := []struct {
		cmd  string
		spec string // fixture basename; defaults to the cmd name
		args []string
	}{
		{cmd: "fabricbench"},
		{cmd: "scenario", args: []string{"-j", "2"}},
		{cmd: "arppath-sim"},
		{cmd: "arpvstp"},
		{cmd: "pathrepair"},
		// The All-Path variants run through the same simulator shell: the
		// registry, not the cmd, is what selects the protocol.
		{cmd: "arppath-sim", spec: "flowpath"},
		{cmd: "arppath-sim", spec: "tcppath"},
		// The learning switch on a loop-free fabric (a random tree), with
		// an aging time short enough that entries expire mid-run.
		{cmd: "arppath-sim", spec: "learning"},
	}
	for _, c := range cases {
		c := c
		if c.spec == "" {
			c.spec = c.cmd
		}
		t.Run(c.spec, func(t *testing.T) {
			golden, err := os.ReadFile("examples/specs/" + c.spec + ".golden")
			if err != nil {
				t.Fatal(err)
			}
			args := append([]string{"run", "./cmd/" + c.cmd, "-spec", "examples/specs/" + c.spec + ".json"}, c.args...)
			out, err := exec.Command("go", args...).Output()
			if err != nil {
				t.Fatalf("go %v: %v", args, err)
			}
			if string(out) != string(golden) {
				t.Fatalf("output diverged from examples/specs/%s.golden.\ngot:\n%s\nwant:\n%s",
					c.spec, out, golden)
			}
		})
	}
}
