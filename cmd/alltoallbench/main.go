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
	"flag"
	"fmt"
	"os"
	"slices"
	"strconv"
	"strings"

	"repro/internal/exchange"
	"repro/internal/netsim"
	"repro/internal/obs"
	"repro/internal/obs/analyze"
	"repro/internal/obs/telemetry"
	"repro/internal/plot"
	recov "repro/internal/recover"
	"repro/internal/tune"
)

// tuningRows serializes the tuned cell's decision record with the run's
// measured per-exchange seconds, publishing the decision and the
// predicted-vs-measured gap as metrics on the run's registry.
func tuningRows(cell *tune.Cell, measured float64, m *obs.Metrics) []analyze.TuningRow {
	out := make([]analyze.TuningRow, 0, len(cell.Stages))
	for _, st := range cell.Stages {
		tr := analyze.TuningRow{
			Label: st.Label, Algo: st.Algo, Chunks: st.Chunks, Method: st.Method,
			PredictedS: st.PredictedS, ProbedS: st.ProbedS, Candidates: st.Candidates,
			MeasuredS: measured,
		}
		if st.PredictedS > 0 && measured > 0 {
			tr.Gap = measured / st.PredictedS
		}
		m.Set("tune/"+st.Label+"/predicted_s", st.PredictedS)
		if tr.Gap > 0 {
			m.Set("tune/"+st.Label+"/gap", tr.Gap)
		}
		m.Add("tune/candidates", int64(st.Candidates))
		out = append(out, tr)
	}
	return out
}

// describeChoice formats one tuned stage for the console summary.
func describeChoice(st tune.Choice) string {
	s := st.Algo
	if st.Method != "" {
		s += "/" + st.Method
	}
	if st.Chunks > 0 && st.Algo == string(tune.CompressedOSC) {
		s += fmt.Sprintf("/c%d", st.Chunks)
	}
	return s
}

func main() {
	msg := flag.Int("msg", 80*1024, "message size per process pair in bytes")
	iters := flag.Int("iters", 2, "measured iterations per point")
	gpusFlag := flag.String("gpus", "6,12,24,48,96,192,384,768,1536", "comma-separated GPU counts (multiples of 6)")
	algosFlag := flag.String("algos", "linear,osc", "algorithms: "+strings.Join(exchange.Algos, ","))
	doPlot := flag.Bool("plot", false, "render the figure as an ASCII chart")
	traceFlag := flag.String("trace", "", "write a Chrome-trace JSON of the last measured cell to this file")
	metricsFlag := flag.Bool("metrics", false, "print the metrics report of the last measured cell")
	jsonFlag := flag.String("json", "", "write the machine-readable bench artifact to this file")
	faultsFlag := flag.Int64("faults", 0, "inject the seeded fault plan netsim.RandomPlan(seed); 0 disables (docs/ROBUSTNESS.md)")
	recoverFlag := flag.Bool("recover", false, "run under the crash-recovery runtime: epoch checkpoints + rollback/respawn on crash verdicts (docs/ROBUSTNESS.md)")
	shrinkFlag := flag.Bool("shrink", false, "with -recover: when a rank's respawn budget is exhausted, shrink onto the survivors instead of giving up (docs/ROBUSTNESS.md)")
	parallelFlag := flag.Bool("parallel", false, "run the simulator's parallel engine (bit-identical results; docs/DETERMINISM.md)")
	autotuneFlag := flag.Bool("autotune", false, "tune the exchange per machine and add a 'tuned' algorithm (docs/TUNING.md)")
	tuneTolFlag := flag.Float64("tunetol", 1e-3, "error budget for the autotuner's compressed candidates")
	tunePlanFlag := flag.String("tuneplan", "", "tune-plan file: written with -autotune, otherwise loaded and replayed")
	tuneProbeFlag := flag.Int("tuneprobe", 2, "probe the best K predicted candidates with short simulation runs (0 = predictor only)")
	tf := telemetry.RegisterFlags(nil)
	flag.Parse()

	// A misspelt algorithm is a usage error, caught before anything runs.
	algos := strings.Split(*algosFlag, ",")
	for _, a := range algos {
		if !slices.Contains(exchange.Algos, a) {
			fmt.Fprintf(os.Stderr, "alltoallbench: unknown algorithm %q in -algos (valid: %s)\n", a, strings.Join(exchange.Algos, ", "))
			os.Exit(2)
		}
	}

	// -json artifacts embed the per-stage error-attribution ledger, so
	// force the error tracker on for artifact runs even without -errtrack.
	telCfg := tf.Config()
	if *jsonFlag != "" {
		telCfg.Tracker = true
	}
	tel, err := telemetry.Start(telCfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "alltoallbench:", err)
		os.Exit(1)
	}
	if tel.Enabled() && tel.Addr() != "" {
		fmt.Printf("# telemetry: serving http://%s\n", tel.Addr())
	}

	gpus, err := parseInts(*gpusFlag)
	if err != nil {
		fmt.Fprintln(os.Stderr, "alltoallbench:", err)
		os.Exit(1)
	}
	// Tuning modes: -autotune computes a plan (and saves it to -tuneplan
	// when given); -tuneplan alone loads a saved plan and replays its
	// decisions. Either adds the "tuned" column to the table.
	var planIn, planOut *tune.Plan
	if *tunePlanFlag != "" && !*autotuneFlag {
		p, err := tune.Load(*tunePlanFlag)
		if err != nil {
			fmt.Fprintln(os.Stderr, "alltoallbench:", err)
			os.Exit(1)
		}
		planIn = p
	}
	if *autotuneFlag {
		planOut = tune.NewPlan(*tuneTolFlag)
	}
	tuning := *autotuneFlag || planIn != nil
	if tuning {
		algos = append(algos, "tuned")
	}

	fmt.Printf("# Fig. 3 — average node bandwidth (GB/s), %d KB per pair\n", *msg/1024)
	fmt.Printf("%8s", "GPUs")
	for _, a := range algos {
		fmt.Printf("%14s", a)
	}
	fmt.Println()
	series := make([]plot.Series, len(algos))
	var labels []string
	for i, a := range algos {
		series[i].Name = a
	}
	// The artifact embeds trace analyses, so -json records like -trace.
	recording := *traceFlag != "" || *jsonFlag != ""
	artifact := &analyze.Artifact{
		Tool: "alltoallbench",
		Config: map[string]string{
			"msg": fmt.Sprint(*msg), "iters": fmt.Sprint(*iters),
			"gpus": *gpusFlag, "algos": *algosFlag,
		},
	}
	if *faultsFlag != 0 {
		artifact.Config["faults"] = fmt.Sprint(*faultsFlag)
	}
	if *recoverFlag {
		artifact.Config["recover"] = "1"
	}
	if *shrinkFlag {
		// Shrink provenance: rows of this artifact may have finished on a
		// degraded (smaller) topology; benchdiff refuses to compare such
		// rows against full-size baselines.
		artifact.Config["shrink"] = "1"
	}
	if tuning {
		artifact.Config["tunetol"] = fmt.Sprint(*tuneTolFlag)
		if *autotuneFlag {
			artifact.Config["autotune"] = "1"
		}
	}
	// recorders keeps the last measured cell's recorder per algorithm so
	// achieved compression can be reported after the table.
	recorders := make([]*obs.Recorder, len(algos))
	var lastRec *obs.Recorder
	var lastCell string
	for _, g := range gpus {
		if g%6 != 0 {
			fmt.Fprintf(os.Stderr, "alltoallbench: skipping %d GPUs (not a multiple of 6)\n", g)
			continue
		}
		machine := netsim.Summit(g / 6)
		machine.Parallel = *parallelFlag
		if *faultsFlag != 0 {
			machine.Faults = netsim.RandomPlan(*faultsFlag)
		}
		// Resolve this machine's tuned cell: compute it (-autotune) or
		// look it up in the loaded plan. The tuner strips the fault plan
		// itself, so the cell is identical with or without -faults.
		var tunedCell *tune.Cell
		var tunedSpec exchange.Spec
		if tuning {
			if *autotuneFlag {
				cell, terr := tune.Alltoall(machine, *msg,
					tune.Space{Budget: *tuneTolFlag, ProbeTopK: *tuneProbeFlag})
				if terr != nil {
					fmt.Fprintln(os.Stderr, "alltoallbench:", terr)
					os.Exit(1)
				}
				tunedCell = cell
				if _, dup := planOut.Cell(cell.Machine, cell.Shape); !dup {
					planOut.Cells = append(planOut.Cells, *cell)
				}
			} else {
				cell, ok := planIn.Cell(tune.Fingerprint(machine), tune.AlltoallShape(*msg))
				if !ok {
					fmt.Fprintf(os.Stderr, "alltoallbench: %s holds no cell for this machine/shape (%d GPUs)\n", *tunePlanFlag, g)
					os.Exit(1)
				}
				tunedCell = cell
			}
			sp, serr := tunedCell.BenchSpec()
			if serr != nil {
				fmt.Fprintln(os.Stderr, "alltoallbench:", serr)
				os.Exit(1)
			}
			tunedSpec = sp
			fmt.Printf("# tuned @ %d GPUs: %s\n", g, describeChoice(tunedCell.Stages[0]))
		}
		fmt.Printf("%8d", g)
		labels = append(labels, fmt.Sprint(g))
		for i, a := range algos {
			rec := obs.New(obs.Options{Trace: recording, Metrics: true})
			cell := fmt.Sprintf("%s/%dgpus", a, g)
			tel.StartRun(cell)
			tel.Attach(rec)
			spec := exchange.Spec{Algo: a}
			if a == "tuned" {
				spec = tunedSpec
			}
			var bw float64
			if *recoverFlag {
				var out recov.Outcome
				var rerr error
				bw, out, rerr = exchange.NodeBandwidthRecoverableSpec(rec, machine, spec, *msg, *iters,
					recov.Policy{Seed: *faultsFlag, Shrink: *shrinkFlag})
				if rerr != nil {
					fmt.Fprintf(os.Stderr, "alltoallbench: %s: %v\n", cell, rerr)
					os.Exit(1)
				}
				if len(out.Recoveries) > 0 {
					fmt.Fprintf(os.Stderr, "# %s: recovered %d crash(es), MTTR %.3gs\n", cell, len(out.Recoveries), out.MTTRSeconds)
				}
				for _, sh := range out.Shrinks {
					fmt.Fprintf(os.Stderr, "# %s: SHRUNK %d->%d ranks (lost %v) at t=%.3gs — degraded topology, not comparable to full-size rows\n",
						cell, sh.FromSize, sh.ToSize, sh.Dead, sh.DetectT)
				}
			} else {
				bw = exchange.NodeBandwidthSpec(rec, machine, spec, *msg, *iters)
			}
			recorders[i] = rec
			lastRec = rec
			lastCell = fmt.Sprintf("%s @ %d GPUs", a, g)
			fmt.Printf("%14.2f", bw/1e9)
			series[i].Values = append(series[i].Values, bw/1e9)
			if *jsonFlag != "" {
				row := analyze.Row{
					Name: a, GPUs: g, NodeBW: bw,
					Compression: analyze.CompressionRows(rec.Metrics().CompressionStats()),
					Faults:      analyze.FaultRowFrom(rec.Metrics()),
					Errors:      analyze.ErrorRows(tel.Tracker(), cell),
				}
				if a == "tuned" && bw > 0 {
					// Seconds per exchange, inverted back out of the
					// bandwidth the harness reports.
					p := machine.Ranks()
					measured := float64(p) * float64(p) * float64(*msg) / (bw * float64(machine.Nodes))
					row.Tuning = tuningRows(tunedCell, measured, rec.Metrics())
				}
				s := analyze.Summarize(analyze.FromRecorder(rec), 0)
				row.Analysis = &s
				artifact.Machine = rec.Machine()
				artifact.Rows = append(artifact.Rows, row)
			}
		}
		fmt.Println()
	}
	// Achieved (not nominal) compression of the compressed algorithms.
	for i, a := range algos {
		stats := recorders[i].Metrics().CompressionStats()
		if len(stats) == 0 {
			continue
		}
		fmt.Printf("# %s achieved compression:", a)
		for _, s := range stats {
			fmt.Printf(" %s %.2fx (error bound %.2e)", s.Label, s.Ratio(), s.ErrorBound)
		}
		fmt.Println()
	}
	if *metricsFlag && lastRec != nil {
		fmt.Printf("\n# metrics report — %s\n", lastCell)
		lastRec.WriteReport(os.Stdout)
	}
	if *traceFlag != "" && lastRec != nil {
		f, err := os.Create(*traceFlag)
		if err != nil {
			fmt.Fprintln(os.Stderr, "alltoallbench:", err)
			os.Exit(1)
		}
		if err := lastRec.WriteChromeTrace(f); err == nil {
			err = f.Close()
		} else {
			f.Close()
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, "alltoallbench:", err)
			os.Exit(1)
		}
		fmt.Printf("# trace written: %s (%s)\n", *traceFlag, lastCell)
	}
	if *jsonFlag != "" {
		if err := artifact.WriteFile(*jsonFlag); err != nil {
			fmt.Fprintln(os.Stderr, "alltoallbench:", err)
			os.Exit(1)
		}
		fmt.Printf("# bench artifact written: %s (%d rows)\n", *jsonFlag, len(artifact.Rows))
	}
	if *autotuneFlag && *tunePlanFlag != "" {
		if err := planOut.Save(*tunePlanFlag); err != nil {
			fmt.Fprintln(os.Stderr, "alltoallbench:", err)
			os.Exit(1)
		}
		fmt.Printf("# tune plan written: %s (%d cells)\n", *tunePlanFlag, len(planOut.Cells))
	}
	if *doPlot {
		fmt.Println()
		fmt.Print(plot.Chart("node bandwidth (GB/s) vs GPUs", labels, series, 60, 14, false))
	}
	if tel.Enabled() {
		fmt.Println(tel.Summary())
		if err := tel.Close(); err != nil {
			fmt.Fprintln(os.Stderr, "alltoallbench: telemetry:", err)
			os.Exit(1)
		}
	}
}

func parseInts(s string) ([]int, error) {
	parts := strings.Split(s, ",")
	out := make([]int, 0, len(parts))
	for _, p := range parts {
		v, err := strconv.Atoi(strings.TrimSpace(p))
		if err != nil {
			return nil, fmt.Errorf("bad count %q", p)
		}
		out = append(out, v)
	}
	return out, nil
}
