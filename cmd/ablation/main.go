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
	"fmt"
	"io"
	"slices"

	"repro/cmd/internal/driver"
	"repro/internal/compress"
	"repro/internal/core"
	"repro/internal/exchange"
	"repro/internal/mpi"
	"repro/internal/netsim"
	"repro/internal/obs"
)

// bench is what every ablation measures on: the session handing out
// recorders, the machine, and the per-pair message size of the exchange
// ablations.
type bench struct {
	*driver.Session
	cfg netsim.Config
	msg int
}

func (b *bench) grab(cell string) *obs.Recorder { return b.Recorder(cell, cell) }

// ablation is one -which name; ablations lists them in the order they run.
type ablation struct {
	name string
	run  func(*bench)
}

var ablations = []ablation{
	{"window", (*bench).window},
	{"permute", (*bench).permute},
	{"pipeline", (*bench).pipeline},
	{"chunks", (*bench).chunks},
	{"flush", (*bench).flush},
	{"eager", (*bench).eager},
	{"transport", (*bench).transport},
	{"reshapes", (*bench).reshapes},
}

func run(args []string, stdout, stderr io.Writer) error {
	s := driver.New("ablation", stdout, stderr, driver.Observe)
	s.Lazy = true
	which := s.Flags.String("which", "all", "comma list: window,permute,pipeline,chunks,flush,eager,transport,reshapes")
	s.Flags.Int("gpus", 96, "GPU count (multiple of 6)")
	msg := s.Flags.Int("msg", 80*1024, "message size per pair for exchange ablations")
	s.Help("trace", "write a Chrome-trace JSON of the last measured run to this file")
	s.Help("metrics", "print the metrics report of the last measured run")
	if err := s.Parse(args); err != nil {
		return err
	}
	want, err := driver.Pick("which", "ablation", *which, append(ablations, ablation{name: "all"}), func(a ablation) string { return a.name })
	if err != nil {
		return err
	}
	if err := s.Start(); err != nil {
		return err
	}
	b := &bench{Session: s, cfg: s.Machine(s.GPUs[0]), msg: *msg}
	for _, a := range ablations {
		if slices.ContainsFunc(want, func(w ablation) bool { return w.name == "all" || w.name == a.name }) {
			a.run(b)
		}
	}
	return s.Finish()
}

func main() { driver.Main("ablation", run) }

// transport separates the two contributions: compression over the
// one-sided pipelined transport vs the same compression over the
// classical two-sided all-to-all.
func (b *bench) transport() {
	n := [3]int{64, 64, 64}
	osc := core.MeasureWith[complex128](b.grab("transport/one-sided"), b.cfg, n, core.Options{
		Backend: core.BackendCompressed, Method: compress.Cast32{}, SimScale: 8,
	}, 2, false).ForwardTime
	two := core.MeasureWith[complex128](b.grab("transport/two-sided"), b.cfg, n, core.Options{
		Backend: core.BackendCompressedTwoSided, Method: compress.Cast32{}, SimScale: 8,
	}, 2, false).ForwardTime
	fmt.Fprintf(b.Stdout, "# transport (FP64→FP32 compression on both): one-sided %.2f ms vs two-sided %.2f ms (%.2fx)\n",
		osc*1e3, two*1e3, two/osc)
}

// reshapes quantifies the four- vs two-reshape configurations
// (brick vs pencil input/output).
func (b *bench) reshapes() {
	n := [3]int{64, 64, 64}
	brick := core.MeasureWith[complex128](b.grab("reshapes/brick"), b.cfg, n, core.Options{
		Backend: core.BackendAlltoallv, SimScale: 8,
	}, 2, false).ForwardTime
	pencil := core.MeasureWith[complex128](b.grab("reshapes/pencil"), b.cfg, n, core.Options{
		Backend: core.BackendAlltoallv, SimScale: 8, PencilIO: true,
	}, 2, false).ForwardTime
	fmt.Fprintf(b.Stdout, "# reshape count: brick I/O (4 reshapes) %.2f ms vs pencil I/O (2 reshapes) %.2f ms (%.2fx)\n",
		brick*1e3, pencil*1e3, brick/pencil)
}

func (b *bench) window() {
	const iters = 8
	timed := func(cached bool, cell string) float64 {
		var t float64
		mpi.RunWith(b.cfg, b.grab(cell), func(c *mpi.Comm) {
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
	fmt.Fprintf(b.Stdout, "# window caching (§V-A): epoch cost with cached window %.1f µs, re-created %.1f µs (%.2fx)\n",
		cachedT*1e6, freshT*1e6, freshT/cachedT)
}

func (b *bench) permute() {
	aware := exchange.NodeBandwidthSpec(b.grab("permute/node-aware"), b.cfg, exchange.Spec{Algo: exchange.AlgoOSC}, b.msg, 2)
	naive := exchange.NodeBandwidthSpec(b.grab("permute/naive"), b.cfg, exchange.Spec{Algo: exchange.AlgoOSCNaive}, b.msg, 2)
	fmt.Fprintf(b.Stdout, "# node-aware permutation: ring %.2f GB/s vs naive %.2f GB/s (%.2fx)\n",
		aware/1e9, naive/1e9, aware/naive)
}

func (b *bench) pipeline() {
	n := [3]int{64, 64, 64}
	on := core.MeasureWith[complex128](b.grab("pipeline/overlapped"), b.cfg, n, core.Options{
		Backend: core.BackendCompressed, Method: compress.Cast32{}, SimScale: 8,
	}, 2, false).ForwardTime
	off := core.MeasureWith[complex128](b.grab("pipeline/synchronous"), b.cfg, n, core.Options{
		Backend: core.BackendCompressed, Method: compress.Cast32{}, SimScale: 8, DisablePipeline: true,
	}, 2, false).ForwardTime
	fmt.Fprintf(b.Stdout, "# §V-B pipeline: overlapped %.2f ms vs synchronous %.2f ms per transform (%.2fx)\n",
		on*1e3, off*1e3, off/on)
}

func (b *bench) chunks() {
	fmt.Fprintln(b.Stdout, "# pipeline depth sweep (compressed exchange, 512^3-equivalent volume):")
	for _, k := range []int{1, 2, 4, 8, 16} {
		t := exchange.CompressedExchangeTimeWith(b.grab(fmt.Sprintf("chunks/%d", k)),
			b.cfg, compress.Cast32{}, k, 40000, 2, true)
		fmt.Fprintf(b.Stdout, "#   chunks=%2d: %.3f ms\n", k, t*1e3)
	}
}

func (b *bench) flush() {
	timed := func(flush int, cell string) float64 {
		var start, end float64
		mpi.RunWith(b.cfg, b.grab(cell), func(c *mpi.Comm) {
			o := exchange.NewOSCPhantom(c, exchange.Uniform(b.msg), true)
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
		return (end - start) / 2
	}
	stepped := timed(b.cfg.GPUsPerNode, "flush/stepped")
	upfront := timed(0, "flush/upfront")
	fmt.Fprintf(b.Stdout, "# per-node-step flush: stepped %.3f ms vs all-upfront %.3f ms per exchange (%.2fx)\n",
		stepped*1e3, upfront*1e3, upfront/stepped)
}

func (b *bench) eager() {
	fmt.Fprintln(b.Stdout, "# eager/rendezvous threshold sweep (two-sided linear all-to-all):")
	p := b.cfg.Ranks()
	for _, thr := range []int{1024, 8192, 65536, 1 << 20} {
		var start, end float64
		mpi.RunWith(b.cfg, b.grab(fmt.Sprintf("eager/%d", thr)), func(c *mpi.Comm) {
			c.SetEagerThreshold(thr)
			sizes := make([]int, p)
			for i := range sizes {
				sizes[i] = b.msg
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
		fmt.Fprintf(b.Stdout, "#   threshold=%7d B: %.3f ms\n", thr, (end-start)*1e3)
	}
}
