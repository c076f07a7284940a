// Command benchdiff gates performance regressions: it compares a new
// bench artifact (written by fftbench/alltoallbench -json) against a
// committed baseline and exits nonzero when any metric worsened beyond
// the relative threshold, or when a baseline configuration disappeared.
//
// Usage:
//
//	go run ./cmd/benchdiff [-threshold 0.1] baseline.json new.json
//
// Seconds and max_error gate lower-is-better; node_bw higher-is-better.
// `make benchdiff` regenerates the current tree's artifacts and runs
// this against the committed BENCH_*.json baselines.
package main

import (
	"fmt"
	"io"

	"repro/cmd/internal/driver"
	"repro/internal/obs/analyze"
)

func run(args []string, stdout, stderr io.Writer) error {
	s := driver.New("benchdiff", stdout, stderr, 0)
	threshold := s.Flags.Float64("threshold", 0.1, "relative worsening that fails the gate (0.1 = 10%)")
	if err := s.Parse(args); err != nil {
		return err
	}
	if s.Flags.NArg() != 2 {
		return driver.Usagef("usage: benchdiff [-threshold F] baseline.json new.json")
	}
	oldA, err := analyze.LoadArtifact(s.Flags.Arg(0))
	if err != nil {
		return err
	}
	newA, err := analyze.LoadArtifact(s.Flags.Arg(1))
	if err != nil {
		return err
	}
	if oldA.Tool != newA.Tool {
		return fmt.Errorf("comparing %s baseline against %s artifact", oldA.Tool, newA.Tool)
	}

	d := analyze.Diff(oldA, newA, *threshold)
	fmt.Fprintf(stdout, "# %s: %s vs %s\n", oldA.Tool, s.Flags.Arg(0), s.Flags.Arg(1))
	d.WriteText(stdout)
	if d.Regressed() {
		return fmt.Errorf("gate failed at threshold %g", *threshold)
	}
	return nil
}

func main() { driver.Main("benchdiff", run) }
