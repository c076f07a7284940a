package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"strconv"
	"time"
)

// maxWorkloadSeconds is the wall-clock budget of one untraced workload
// run on two cores.
const maxWorkloadSeconds = 30

// outcome is one workload's run as the parent process sees it.
type outcome struct {
	name    string
	report  report
	seconds float64 // wall clock of the child process
}

// runAll runs every workload in a process of its own, one after the
// other: a workload that leaves a multi-GB heap behind shifts the timings
// of the next one measured in the same process. Each child's lines are
// passed through to out; its last line is its result.
func runAll(rc runConfig, out io.Writer) ([]outcome, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	trace := "0"
	if rc.traced {
		trace = "1"
	}
	var outcomes []outcome
	var incorrect []string
	for _, w := range workloads(false) {
		cmd := exec.Command(exe, "-workload", w.name, "-trace", trace,
			"-seed", strconv.FormatUint(rc.seed, 10), "-seconds", strconv.FormatFloat(rc.seconds, 'g', -1, 64))
		var buf bytes.Buffer
		cmd.Stdout = io.MultiWriter(out, &buf)
		cmd.Stderr = os.Stderr
		t0 := time.Now()
		if err := cmd.Run(); err != nil {
			return outcomes, fmt.Errorf("%s: %w", w.name, err)
		}
		o := outcome{name: w.name, seconds: time.Since(t0).Seconds()}
		lines := bytes.Split(bytes.TrimSpace(buf.Bytes()), []byte("\n"))
		if err := json.Unmarshal(lines[len(lines)-1], &o.report); err != nil {
			return outcomes, fmt.Errorf("%s: result line: %w", w.name, err)
		}
		fmt.Fprintf(out, "%-16s %d ops attempted, %d failed, %.1f s\n", w.name, o.report.Attempted, o.report.Failed, o.seconds)
		if !o.report.Correct {
			incorrect = append(incorrect, w.name)
		}
		outcomes = append(outcomes, o)
	}
	if len(incorrect) > 0 {
		return outcomes, fmt.Errorf("failed checks on %v", incorrect)
	}
	return outcomes, nil
}

// benchmarkFile is the part of BENCHMARK.json the self-check reads: the
// regression bound fixed for each end-to-end metric.
type benchmarkFile struct {
	EndToEnd []struct {
		Name  string  `json:"name"`
		Bound float64 `json:"bound"`
	} `json:"end_to_end"`
}

// selfCheck runs two full untraced sets of the same code and prints each
// end-to-end metric's relative difference beside its bound. It fails if
// a difference exceeds its bound or a workload overran its time budget.
func selfCheck(rc runConfig) error {
	data, err := os.ReadFile("BENCHMARK.json")
	if err != nil {
		return fmt.Errorf("run from the root of the repo: %w", err)
	}
	var file benchmarkFile
	if err := json.Unmarshal(data, &file); err != nil {
		return fmt.Errorf("BENCHMARK.json: %w", err)
	}
	rc.traced = false
	var sets [2][]outcome
	for i := range sets {
		if sets[i], err = runAll(rc, io.Discard); err != nil {
			return err
		}
	}
	bad := 0
	fmt.Printf("%-16s %-18s %14s %14s %9s %7s\n", "workload", "metric", "set 1", "set 2", "diff", "bound")
	for i, a := range sets[0] {
		b := sets[1][i]
		for _, m := range file.EndToEnd {
			va, vb := a.report.Metrics[m.Name].Value, b.report.Metrics[m.Name].Value
			diff := math.Abs(vb-va) / va
			verdict := ""
			if !(diff <= m.Bound) {
				verdict = "  EXCEEDED"
				bad++
			}
			fmt.Printf("%-16s %-18s %14.6g %14.6g %8.2f%% %6.0f%%%s\n", a.name, m.Name, va, vb, 100*diff, 100*m.Bound, verdict)
		}
		if s := math.Max(a.seconds, b.seconds); s >= maxWorkloadSeconds {
			fmt.Printf("%-16s took %.1f s, budget %d s  EXCEEDED\n", a.name, s, maxWorkloadSeconds)
			bad++
		}
	}
	if bad > 0 {
		return fmt.Errorf("self-check: %d bounds exceeded", bad)
	}
	return nil
}
