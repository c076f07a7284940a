// Command alltoallbench regenerates Fig. 3 of the paper: average node
// bandwidth of the all-to-all implementations as the number of GPUs
// grows, at a fixed message size per process pair (80 KB by default).
//
// Usage:
//
//	go run ./cmd/alltoallbench [-msg 81920] [-iters 2] [-gpus 6,12,...] [-algos linear,osc]
//	                           [-trace out.json] [-metrics] [-json bench.json]
//
// The osc-comp algorithm runs the compressed one-sided exchange on real
// payloads; its achieved compression ratio is printed after the table.
// -json writes the versioned bench artifact (per-cell node bandwidth,
// achieved compression, trace analysis) that cmd/benchdiff gates
// regressions against.
package main

import (
	"fmt"
	"io"
	"strings"

	"repro/cmd/internal/driver"
	"repro/internal/exchange"
	"repro/internal/obs"
	"repro/internal/obs/analyze"
	recov "repro/internal/recover"
	"repro/internal/tune"
)

func run(args []string, stdout, stderr io.Writer) error {
	b := driver.NewBench("alltoallbench", stdout, stderr)
	msg := b.Flags.Int("msg", 80*1024, "message size per process pair in bytes")
	iters := b.Flags.Int("iters", 2, "measured iterations per point")
	gpusFlag := b.Flags.String("gpus", "6,12,24,48,96,192,384,768,1536", "comma-separated GPU counts (multiples of 6)")
	algosFlag := b.Flags.String("algos", "linear,osc", "algorithms: "+strings.Join(exchange.Algos, ","))
	b.Help("autotune", "tune the exchange per machine and add a 'tuned' algorithm (docs/TUNING.md)")
	b.Help("tunetol", "error budget for the autotuner's compressed candidates")
	if err := b.Parse(args); err != nil {
		return err
	}
	algos, err := driver.Pick("algos", "algorithm", *algosFlag, exchange.Algos, func(a string) string { return a })
	if err != nil {
		return err
	}
	if b.Tuning() {
		algos = append(algos, "tuned")
	}
	if err := b.Start(algos, map[string]string{
		"msg": fmt.Sprint(*msg), "iters": fmt.Sprint(*iters),
		"gpus": *gpusFlag, "algos": *algosFlag,
	}); err != nil {
		return err
	}

	fmt.Fprintf(stdout, "# Fig. 3 — average node bandwidth (GB/s), %d KB per pair\n", *msg/1024)
	fmt.Fprintf(stdout, "%8s", "GPUs")
	for _, a := range algos {
		fmt.Fprintf(stdout, "%14s", a)
	}
	fmt.Fprintln(stdout)
	for _, g := range b.GPUs {
		machine := b.Machine(g)
		tunedCell, err := b.Tuned(machine, tune.AlltoallShape(*msg), func(sp tune.Space) (*tune.Cell, error) {
			return tune.Alltoall(machine, *msg, sp)
		})
		if err != nil {
			return err
		}
		var tunedSpec exchange.Spec
		if tunedCell != nil {
			if tunedSpec, err = tunedCell.BenchSpec(); err != nil {
				return err
			}
			fmt.Fprintf(stdout, "# tuned @ %d GPUs: %s\n", g, tunedCell.Stages[0])
		}
		fmt.Fprintf(stdout, "%8d", g)
		gbs := make([]float64, len(algos))
		for i, a := range algos {
			rec, cell := b.Cell(i, g)
			spec := exchange.Spec{Algo: a}
			if a == "tuned" {
				spec = tunedSpec
			}
			var bw float64
			if b.Recover {
				var out recov.Outcome
				bw, out, err = exchange.NodeBandwidthRecoverableSpec(rec, machine, spec, *msg, *iters, recov.Policy{Seed: b.Faults})
				if err = b.Recovered(cell, out, err); err != nil {
					return err
				}
			} else {
				bw = exchange.NodeBandwidthSpec(rec, machine, spec, *msg, *iters)
			}
			gbs[i] = bw / 1e9
			fmt.Fprintf(stdout, "%14.2f", gbs[i])
			if b.JSON == "" {
				continue
			}
			row := analyze.Row{Name: a, GPUs: g, NodeBW: bw}
			if a == "tuned" && bw > 0 {
				// Seconds per exchange, inverted back out of the
				// bandwidth the harness reports.
				p := float64(machine.Ranks())
				measured := p * p * float64(*msg) / (bw * float64(machine.Nodes))
				row.Tuning = driver.TuningRows(tunedCell, rec.Metrics(), func(string) float64 { return measured })
			}
			b.AddRow(row, rec, cell)
		}
		fmt.Fprintln(stdout)
		b.PlotRow(g, gbs)
	}
	return b.Finish("node bandwidth (GB/s) vs GPUs", false, func(s obs.CompressionStat) string {
		return fmt.Sprintf(" %s %.2fx (error bound %.2e)", s.Label, s.Ratio(), s.ErrorBound)
	})
}

func main() { driver.Main("alltoallbench", run) }
