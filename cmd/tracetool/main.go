// Command tracetool analyzes a saved trace (the Chrome-trace JSON that
// every driver writes with -trace): it extracts the critical path
// through the rank-span/wire-event dependency graph, decomposes it by
// phase and link, reports per-resource utilization timelines (NICs,
// node buses, GPU streams), and measures compression/communication
// overlap efficiency.
//
// Usage:
//
//	go run ./cmd/tracetool [-bins 50] [-json] trace.json
//
// -json emits the summary as machine-readable JSON instead of the text
// report.
package main

import (
	"encoding/json"
	"fmt"
	"io"

	"repro/cmd/internal/driver"
	"repro/internal/obs/analyze"
)

func run(args []string, stdout, stderr io.Writer) error {
	s := driver.New("tracetool", stdout, stderr, 0)
	bins := s.Flags.Int("bins", 50, "utilization timeline bins")
	jsonOut := s.Flags.Bool("json", false, "emit the summary as JSON")
	if err := s.Parse(args); err != nil {
		return err
	}
	if s.Flags.NArg() != 1 {
		return driver.Usagef("usage: tracetool [-bins N] [-json] trace.json")
	}

	t, err := analyze.LoadChromeTraceFile(s.Flags.Arg(0))
	if err != nil {
		return err
	}
	sum := analyze.Summarize(t, *bins)
	if *jsonOut {
		enc := json.NewEncoder(stdout)
		enc.SetIndent("", "  ")
		return enc.Encode(sum)
	}
	fmt.Fprintf(stdout, "# %s\n", s.Flags.Arg(0))
	sum.WriteText(stdout)
	return nil
}

func main() { driver.Main("tracetool", run) }
