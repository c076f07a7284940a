// Command fftbench regenerates Fig. 4 of the paper: strong scaling of
// the distributed 3-D FFT, in Gflop/s (left) and speedup over the FP64
// baseline (right), for the four configurations of the paper:
//
//	fp64     — FP64 pipeline, classical MPI_Alltoallv (solid blue)
//	fp32     — FP32 pipeline, classical MPI_Alltoallv (solid orange)
//	fp64-32  — FP64 compute, FP64→FP32 compressed OSC exchange
//	fp64-16  — FP64 compute, FP64→FP16 compressed OSC exchange
//
// The paper ran 1024³ on up to 1536 GPUs; the default here is 128³ on
// the same GPU counts (see EXPERIMENTS.md for the scale discussion).
//
// Usage:
//
//	go run ./cmd/fftbench [-n 128] [-gpus 12,24,...] [-iters 1] [-configs fp64,fp32,fp64-32,fp64-16]
//	                      [-trace out.json] [-metrics] [-json bench.json]
//
// -trace writes a Chrome-trace JSON (chrome://tracing / Perfetto) of
// the last measured cell; -metrics prints its phase-breakdown report;
// -json writes the versioned bench artifact (every cell's virtual-time
// results, achieved compression, model-vs-measured exchange deltas, and
// trace analysis) that cmd/benchdiff gates regressions against.
// Compressed configs always report their achieved (not just nominal)
// compression ratio per reshape after the table.
package main

import (
	"fmt"
	"io"

	"repro/cmd/internal/driver"
	"repro/internal/compress"
	"repro/internal/core"
	"repro/internal/netsim"
	"repro/internal/obs"
	"repro/internal/obs/analyze"
	recov "repro/internal/recover"
	"repro/internal/tune"
)

// config pairs a named pipeline configuration with the options that
// build it. fp32 selects the complex64 pipeline (8-byte elements on the
// wire instead of 16), which is what the cost model needs to know too.
type config struct {
	name string
	opts core.Options
	fp32 bool
}

// measure runs one cell; with -recover it runs under the crash-recovery
// runtime: the plan checkpoints after every reshape and absorbs watchdog
// crash verdicts by rolling back and respawning (docs/ROBUSTNESS.md).
func (c config) measure(b *driver.Bench, rec *obs.Recorder, cell string, cfg netsim.Config, n [3]int, iters, simScale int) (core.Result, error) {
	opts := c.opts
	opts.SimScale = simScale
	plain, recoverable := core.MeasureWith[complex128], core.MeasureRecoverable[complex128]
	if c.fp32 {
		plain, recoverable = core.MeasureWith[complex64], core.MeasureRecoverable[complex64]
	}
	if !b.Recover {
		return plain(rec, cfg, n, opts, iters, false), nil
	}
	res, out, err := recoverable(rec, cfg, n, opts, iters, false, recov.Policy{Seed: b.Faults})
	return res, b.Recovered(cell, out, err)
}

// configs are the named pipeline configurations -configs selects from.
var configs = []config{
	{name: "fp64", opts: core.Options{Backend: core.BackendAlltoallv}},
	{name: "fp32", opts: core.Options{Backend: core.BackendAlltoallv}, fp32: true},
	{name: "fp64-32", opts: core.Options{Backend: core.BackendCompressed, Method: compress.Cast32{}}},
	{name: "fp64-16", opts: core.Options{Backend: core.BackendCompressed, Method: compress.Cast16{}}},
	{name: "fp64-bf16", opts: core.Options{Backend: core.BackendCompressed, Method: compress.CastBF16{}}},
	// Compression over the two-sided transport (ablation).
	{name: "fp64-32-2s", opts: core.Options{Backend: core.BackendCompressedTwoSided, Method: compress.Cast32{}}},
	// Uncompressed one-sided exchange (isolates the OSC gain).
	{name: "osc", opts: core.Options{Backend: core.BackendOSC}},
	// Reduced-reshape configuration (pencil-shaped input/output).
	{name: "fp64-pencil", opts: core.Options{Backend: core.BackendAlltoallv, PencilIO: true}},
}

// modelDeltas pairs the cost model's per-reshape prediction with the
// measured exchange-time histograms of the run.
func modelDeltas(rec *obs.Recorder, machine netsim.Config, n [3]int, c config, simScale int) []analyze.ModelDelta {
	opts := c.opts
	opts.SimScale = simScale
	elemBytes := 16
	if c.fp32 {
		elemBytes = 8
	}
	var out []analyze.ModelDelta
	for _, est := range core.PredictExchanges(machine, n, opts, elemBytes) {
		h, ok := rec.Metrics().Hist("exchange/" + est.Label + "/time_s")
		if !ok || h.Count == 0 || est.Predicted <= 0 {
			continue
		}
		d := analyze.ModelDelta{Label: est.Label, Measured: h.Mean(), Predicted: est.Predicted}
		d.Ratio = d.Measured / d.Predicted
		out = append(out, d)
	}
	return out
}

func run(args []string, stdout, stderr io.Writer) error {
	b := driver.NewBench("fftbench", stdout, stderr)
	nFlag := b.Flags.Int("n", 128, "cubic data size per dimension")
	simFlag := b.Flags.Int("sim", 1024, "simulated problem size per dimension (time plane; must be a multiple of -n)")
	gpusFlag := b.Flags.String("gpus", "12,24,48,96,192,384,768,1536", "comma-separated GPU counts (multiples of 6)")
	iters := b.Flags.Int("iters", 1, "measured iterations per point")
	configsFlag := b.Flags.String("configs", "fp64,fp32,fp64-32,fp64-16", "configurations")
	b.Help("metrics", "print the phase-breakdown/metrics report of the last measured cell")
	if err := b.Parse(args); err != nil {
		return err
	}
	if *simFlag%*nFlag != 0 {
		return driver.Usagef("-sim must be a multiple of -n")
	}
	n := [3]int{*nFlag, *nFlag, *nFlag}
	simScale := *simFlag / *nFlag
	cols, err := driver.Pick("configs", "config", *configsFlag, configs, func(c config) string { return c.name })
	if err != nil {
		return err
	}
	if b.Tuning() {
		cols = append(cols, config{name: "tuned"})
	}
	names := make([]string, len(cols))
	for i, c := range cols {
		names[i] = c.name
	}
	if err := b.Start(names, map[string]string{
		"n": fmt.Sprint(*nFlag), "sim": fmt.Sprint(*simFlag),
		"gpus": *gpusFlag, "iters": fmt.Sprint(*iters), "configs": *configsFlag,
	}); err != nil {
		return err
	}

	fmt.Fprintf(stdout, "# Fig. 4 — strong scaling, %d^3 simulated problem (%d^3 data)\n", *simFlag, *nFlag)
	fmt.Fprintf(stdout, "%8s", "GPUs")
	// " %11s", not "%12s": "fp64-32 GF/s" is 12 characters wide, and the
	// header must keep a separating space for any config name.
	for _, name := range names {
		fmt.Fprintf(stdout, " %11s", name+" GF/s")
	}
	for _, name := range names {
		fmt.Fprintf(stdout, " %11s", name+" spd")
	}
	fmt.Fprintln(stdout)

	for _, g := range b.GPUs {
		machine := b.Machine(g)
		tunedCell, err := b.Tuned(machine, tune.FFTShape(n, simScale, false, false), func(sp tune.Space) (*tune.Cell, error) {
			return tune.FFT[complex128](machine, n, core.Options{SimScale: simScale}, sp)
		})
		if err != nil {
			return err
		}
		if tunedCell != nil {
			fmt.Fprintf(stdout, "# tuned @ %d GPUs:", g)
			for _, st := range tunedCell.Stages {
				fmt.Fprintf(stdout, " %s=%s", st.Label, st)
			}
			fmt.Fprintln(stdout)
		}
		gflops := make([]float64, len(cols))
		for i, c := range cols {
			if c.name == "tuned" {
				c.opts = core.Options{Tune: tunedCell}
			}
			rec, cell := b.Cell(i, g)
			res, err := c.measure(b, rec, cell, machine, n, *iters, simScale)
			if err != nil {
				return err
			}
			gflops[i] = res.Gflops
			if b.JSON == "" {
				continue
			}
			row := analyze.Row{Name: c.name, GPUs: g, Precision: 64, Seconds: res.ForwardTime, Gflops: res.Gflops}
			if c.fp32 {
				row.Precision = 32
			}
			if c.name == "tuned" {
				// Tuned rows carry the decision record instead of the
				// fixed-config model deltas.
				row.Tuning = driver.TuningRows(tunedCell, rec.Metrics(), func(label string) float64 {
					h, _ := rec.Metrics().Hist("exchange/" + label + "/time_s")
					return h.Mean()
				})
			} else {
				row.Model = modelDeltas(rec, machine, n, c, simScale)
			}
			b.AddRow(row, rec, cell)
		}
		fmt.Fprintf(stdout, "%8d", g)
		for _, gf := range gflops {
			fmt.Fprintf(stdout, "%12.1f", gf)
		}
		for _, gf := range gflops {
			fmt.Fprintf(stdout, "%12.2f", gf/gflops[0])
		}
		fmt.Fprintln(stdout)
		b.PlotRow(g, gflops)
	}
	return b.Finish("Gflop/s vs GPUs (log scale)", true, func(s obs.CompressionStat) string {
		return fmt.Sprintf(" %s %.2fx", s.Label, s.Ratio())
	})
}

func main() { driver.Main("fftbench", run) }
