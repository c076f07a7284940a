// Command ablation quantifies the design choices of §V individually:
//
//	window     — cached window vs re-created window per exchange (§V-A)
//	permute    — node-aware ring vs naive rank ring (Algorithm 3's permute[])
//	pipeline   — §V-B compression/communication overlap vs synchronous
//	chunks     — pipeline depth sweep
//	flush      — per-node-step completion wait vs posting everything upfront
//	eager      — eager/rendezvous threshold sweep for the two-sided baseline
//
// Usage:
//
//	go run ./cmd/ablation [-which all] [-gpus 96] [-msg 81920]
//	                      [-trace out.json] [-metrics]
//
// -trace writes a Chrome-trace JSON of the last measured run (analyze it
// with cmd/tracetool); -metrics prints its phase/metrics report.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"repro/internal/compress"
	"repro/internal/core"
	"repro/internal/exchange"
	"repro/internal/mpi"
	"repro/internal/netsim"
	"repro/internal/obs"
	"repro/internal/obs/telemetry"
)

// recording carries the -trace/-metrics state: each ablation run may
// grab a fresh recorder, and the last one is exported at exit.
type recording struct {
	on       bool
	lastRec  *obs.Recorder
	lastCell string
}

var rec recording

// tel is the live-telemetry session of the -serve/-eventlog/-slo flags
// (nil-safe when they are all off).
var tel *telemetry.Session

func (r *recording) grab(cell string) *obs.Recorder {
	if !r.on && !tel.Enabled() {
		return nil
	}
	c := obs.New(obs.Options{Trace: r.on, Metrics: true})
	tel.StartRun(cell)
	tel.Attach(c)
	if r.on {
		r.lastRec, r.lastCell = c, cell
	}
	return c
}

func main() {
	which := flag.String("which", "all", "comma list: window,permute,pipeline,chunks,flush,eager,transport,reshapes")
	gpus := flag.Int("gpus", 96, "GPU count (multiple of 6)")
	msg := flag.Int("msg", 80*1024, "message size per pair for exchange ablations")
	traceFlag := flag.String("trace", "", "write a Chrome-trace JSON of the last measured run to this file")
	metricsFlag := flag.Bool("metrics", false, "print the metrics report of the last measured run")
	tf := telemetry.RegisterFlags(nil)
	flag.Parse()

	var err error
	if tel, err = tf.Start(); err != nil {
		fmt.Fprintln(os.Stderr, "ablation:", err)
		os.Exit(1)
	}
	if tel.Enabled() && tel.Addr() != "" {
		fmt.Printf("# telemetry: serving http://%s\n", tel.Addr())
	}
	if *gpus%6 != 0 {
		fmt.Fprintln(os.Stderr, "ablation: -gpus must be a multiple of 6")
		os.Exit(1)
	}
	rec.on = *traceFlag != "" || *metricsFlag
	cfg := netsim.Summit(*gpus / 6)
	want := map[string]bool{}
	for _, w := range strings.Split(*which, ",") {
		want[strings.TrimSpace(w)] = true
	}
	all := want["all"]

	if all || want["window"] {
		ablateWindow(cfg)
	}
	if all || want["permute"] {
		ablatePermute(cfg, *msg)
	}
	if all || want["pipeline"] {
		ablatePipeline(cfg)
	}
	if all || want["chunks"] {
		ablateChunks(cfg)
	}
	if all || want["flush"] {
		ablateFlush(cfg, *msg)
	}
	if all || want["eager"] {
		ablateEager(cfg, *msg)
	}
	if all || want["transport"] {
		ablateTransport(cfg)
	}
	if all || want["reshapes"] {
		ablateReshapes(cfg)
	}

	if *metricsFlag && rec.lastRec != nil {
		fmt.Printf("\n# metrics report — %s\n", rec.lastCell)
		rec.lastRec.WriteReport(os.Stdout)
	}
	if *traceFlag != "" && rec.lastRec != nil {
		f, err := os.Create(*traceFlag)
		if err != nil {
			fmt.Fprintln(os.Stderr, "ablation:", err)
			os.Exit(1)
		}
		if err := rec.lastRec.WriteChromeTrace(f); err == nil {
			err = f.Close()
		} else {
			f.Close()
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, "ablation:", err)
			os.Exit(1)
		}
		fmt.Printf("# trace written: %s (%s)\n", *traceFlag, rec.lastCell)
	}
	if tel.Enabled() {
		fmt.Println(tel.Summary())
		if err := tel.Close(); err != nil {
			fmt.Fprintln(os.Stderr, "ablation: telemetry:", err)
			os.Exit(1)
		}
	}
}

// ablateTransport separates the two contributions: compression over the
// one-sided pipelined transport vs the same compression over the
// classical two-sided all-to-all.
func ablateTransport(cfg netsim.Config) {
	n := [3]int{64, 64, 64}
	osc := core.MeasureWith[complex128](rec.grab("transport/one-sided"), cfg, n, core.Options{
		Backend: core.BackendCompressed, Method: compress.Cast32{}, SimScale: 8,
	}, 2, false).ForwardTime
	two := core.MeasureWith[complex128](rec.grab("transport/two-sided"), cfg, n, core.Options{
		Backend: core.BackendCompressedTwoSided, Method: compress.Cast32{}, SimScale: 8,
	}, 2, false).ForwardTime
	fmt.Printf("# transport (FP64→FP32 compression on both): one-sided %.2f ms vs two-sided %.2f ms (%.2fx)\n",
		osc*1e3, two*1e3, two/osc)
}

// ablateReshapes quantifies the four- vs two-reshape configurations
// (brick vs pencil input/output).
func ablateReshapes(cfg netsim.Config) {
	n := [3]int{64, 64, 64}
	brick := core.MeasureWith[complex128](rec.grab("reshapes/brick"), cfg, n, core.Options{
		Backend: core.BackendAlltoallv, SimScale: 8,
	}, 2, false).ForwardTime
	pencil := core.MeasureWith[complex128](rec.grab("reshapes/pencil"), cfg, n, core.Options{
		Backend: core.BackendAlltoallv, SimScale: 8, PencilIO: true,
	}, 2, false).ForwardTime
	fmt.Printf("# reshape count: brick I/O (4 reshapes) %.2f ms vs pencil I/O (2 reshapes) %.2f ms (%.2fx)\n",
		brick*1e3, pencil*1e3, brick/pencil)
}

func ablateWindow(cfg netsim.Config) {
	const iters = 8
	timed := func(cached bool, cell string) float64 {
		var t float64
		mpi.RunWith(cfg, rec.grab(cell), func(c *mpi.Comm) {
			c.Barrier()
			start := c.Now()
			var win *mpi.Win
			for i := 0; i < iters; i++ {
				if win == nil || !cached {
					win = c.WinCreate(make([]byte, 1024))
				}
				win.Fence(nil)
			}
			end := c.AllreduceFloat64("max", c.Now())
			if c.Rank() == 0 {
				t = (end - start) / iters
			}
		})
		return t
	}
	cachedT, freshT := timed(true, "window/cached"), timed(false, "window/fresh")
	fmt.Printf("# window caching (§V-A): epoch cost with cached window %.1f µs, re-created %.1f µs (%.2fx)\n",
		cachedT*1e6, freshT*1e6, freshT/cachedT)
}

func ablatePermute(cfg netsim.Config, msg int) {
	aware := exchange.NodeBandwidthSpec(rec.grab("permute/node-aware"), cfg, exchange.Spec{Algo: exchange.AlgoOSC}, msg, 2)
	naive := exchange.NodeBandwidthSpec(rec.grab("permute/naive"), cfg, exchange.Spec{Algo: exchange.AlgoOSCNaive}, msg, 2)
	fmt.Printf("# node-aware permutation: ring %.2f GB/s vs naive %.2f GB/s (%.2fx)\n",
		aware/1e9, naive/1e9, aware/naive)
}

func ablatePipeline(cfg netsim.Config) {
	n := [3]int{64, 64, 64}
	on := core.MeasureWith[complex128](rec.grab("pipeline/overlapped"), cfg, n, core.Options{
		Backend: core.BackendCompressed, Method: compress.Cast32{}, SimScale: 8,
	}, 2, false).ForwardTime
	off := core.MeasureWith[complex128](rec.grab("pipeline/synchronous"), cfg, n, core.Options{
		Backend: core.BackendCompressed, Method: compress.Cast32{}, SimScale: 8, DisablePipeline: true,
	}, 2, false).ForwardTime
	fmt.Printf("# §V-B pipeline: overlapped %.2f ms vs synchronous %.2f ms per transform (%.2fx)\n",
		on*1e3, off*1e3, off/on)
}

func ablateChunks(cfg netsim.Config) {
	fmt.Println("# pipeline depth sweep (compressed exchange, 512^3-equivalent volume):")
	for _, k := range []int{1, 2, 4, 8, 16} {
		t := exchange.CompressedExchangeTimeWith(rec.grab(fmt.Sprintf("chunks/%d", k)),
			cfg, compress.Cast32{}, k, 40000, 2, true)
		fmt.Printf("#   chunks=%2d: %.3f ms\n", k, t*1e3)
	}
}

func ablateFlush(cfg netsim.Config, msg int) {
	timed := func(flush int, cell string) float64 {
		p := cfg.Ranks()
		var start, end float64
		mpi.RunWith(cfg, rec.grab(cell), func(c *mpi.Comm) {
			o := exchange.NewOSCPhantom(c, exchange.Uniform(msg), true)
			o.FlushEvery = flush
			o.ExchangeN()
			c.Barrier()
			t0 := c.AllreduceFloat64("min", c.Now())
			o.ExchangeN()
			o.ExchangeN()
			c.Barrier()
			t1 := c.AllreduceFloat64("max", c.Now())
			if c.Rank() == 0 {
				start, end = t0, t1
			}
		})
		_ = p
		return (end - start) / 2
	}
	stepped := timed(cfg.GPUsPerNode, "flush/stepped")
	upfront := timed(0, "flush/upfront")
	fmt.Printf("# per-node-step flush: stepped %.3f ms vs all-upfront %.3f ms per exchange (%.2fx)\n",
		stepped*1e3, upfront*1e3, upfront/stepped)
}

func ablateEager(cfg netsim.Config, msg int) {
	fmt.Println("# eager/rendezvous threshold sweep (two-sided linear all-to-all):")
	p := cfg.Ranks()
	for _, thr := range []int{1024, 8192, 65536, 1 << 20} {
		var start, end float64
		mpi.RunWith(cfg, rec.grab(fmt.Sprintf("eager/%d", thr)), func(c *mpi.Comm) {
			c.SetEagerThreshold(thr)
			sizes := make([]int, p)
			for i := range sizes {
				sizes[i] = msg
			}
			c.AlltoallvN(sizes)
			c.Barrier()
			t0 := c.AllreduceFloat64("min", c.Now())
			c.AlltoallvN(sizes)
			c.Barrier()
			t1 := c.AllreduceFloat64("max", c.Now())
			if c.Rank() == 0 {
				start, end = t0, t1
			}
		})
		fmt.Printf("#   threshold=%7d B: %.3f ms\n", thr, (end-start)*1e3)
	}
}
