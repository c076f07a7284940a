package main

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"io"
	"os/exec"
	"strconv"
	"strings"
)

// The layers whose share of CPU samples is reported as <layer>.self_frac.
// Repo frames of any other package (obs, recover, tune, the benchmark's
// own) are folded into other.self_frac, so the shares always sum to 1.
var profiledLayers = map[string]bool{
	"netsim": true, "mpi": true, "exchange": true, "compress": true, "precision": true,
	"fft": true, "grid": true, "gpu": true, "core": true,
}

const internalPrefix = "repro/internal/"

// errNoSamples reports a profile window shorter than the sampling period.
var errNoSamples = errors.New("profile holds no samples")

// foldProfiles folds CPU profiles into per-layer shares using only the
// toolchain: it parses the text of `go tool pprof -traces`.
func foldProfiles(files []string) (map[string]float64, error) {
	if len(files) == 0 {
		return nil, fmt.Errorf("no profile recorded")
	}
	cmd := exec.Command("go", append([]string{"tool", "pprof", "-traces"}, files...)...)
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("go tool pprof -traces: %w: %s", err, strings.TrimSpace(stderr.String()))
	}
	return foldTraces(bytes.NewReader(out))
}

// foldTraces reads `pprof -traces` text — blocks separated by dashed
// lines, each a sample value followed by its stack, leaf first — and
// charges every sample to the innermost repro/internal/<pkg> frame on
// its stack: standard-library and runtime leaves go to the nearest repo
// caller. A stack with no such frame goes to other.self_frac when the
// benchmark's own code is on it, and otherwise to the runtime: gc_frac
// for collector work, mem_frac for a bare memmove/memclr leaf (stack
// copies), sched_frac for the rest (scheduler, park/ready, timers). The
// result maps metric names to shares of the total sample value.
func foldTraces(r io.Reader) (map[string]float64, error) {
	sums := map[string]float64{}
	total := 0.0
	var value float64
	var stack []string
	flush := func() {
		if len(stack) > 0 {
			sums[classify(stack)] += value
			total += value
		}
		stack = stack[:0]
	}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	inSamples := false
	for sc.Scan() {
		line := sc.Text()
		if strings.HasPrefix(line, "-----------+") {
			flush()
			inSamples = true
			continue
		}
		fields := strings.Fields(line)
		if !inSamples || len(fields) == 0 {
			continue
		}
		if len(stack) == 0 {
			// The first line of a block is "<value><unit> <leaf>"; label
			// lines ("key: value") may precede it and are skipped.
			v, ok := parseDuration(fields[0])
			if !ok || len(fields) < 2 {
				continue
			}
			value = v
			stack = append(stack, fields[1])
			continue
		}
		stack = append(stack, fields[0])
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	flush()
	if total == 0 {
		return nil, errNoSamples
	}
	for k := range sums {
		sums[k] /= total
	}
	return sums, nil
}

// classify names the metric a stack (leaf first) is charged to.
func classify(stack []string) string {
	own := false
	for _, fn := range stack {
		if rest, ok := strings.CutPrefix(fn, internalPrefix); ok {
			pkg, _, _ := strings.Cut(strings.ReplaceAll(rest, "/", "."), ".")
			if profiledLayers[pkg] {
				return pkg + ".self_frac"
			}
			return "other.self_frac"
		}
		if strings.HasPrefix(fn, "main.") {
			own = true
		}
	}
	if own {
		return "other.self_frac"
	}
	for _, fn := range stack {
		for _, mark := range []string{"runtime.gc", "runtime.bgsweep", "runtime.bgscavenge", "runtime.(*gcWork)", "runtime.scanobject", "runtime.sweepone"} {
			if strings.HasPrefix(fn, mark) {
				return "runtime.gc_frac"
			}
		}
	}
	if leaf := stack[0]; strings.HasPrefix(leaf, "runtime.memmove") || strings.HasPrefix(leaf, "runtime.memclr") {
		return "runtime.mem_frac"
	}
	return "runtime.sched_frac"
}

// parseDuration reads a pprof sample value such as "10ms" or "1.52s"
// into seconds.
func parseDuration(s string) (float64, bool) {
	for _, u := range []struct {
		suffix string
		scale  float64
	}{{"mins", 60}, {"hrs", 3600}, {"ns", 1e-9}, {"us", 1e-6}, {"µs", 1e-6}, {"ms", 1e-3}, {"s", 1}} {
		if num, ok := strings.CutSuffix(s, u.suffix); ok {
			v, err := strconv.ParseFloat(num, 64)
			return v * u.scale, err == nil
		}
	}
	return 0, false
}
