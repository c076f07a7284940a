// Package repro's benchmarks regenerate every table and figure of the
// paper at continuous-integration scale (small GPU counts, sim-scaled
// volumes). The cmd/ binaries run the same experiments at full scale;
// EXPERIMENTS.md records the full-scale numbers against the paper's.
//
// Custom metrics attached to each benchmark carry the figure's actual
// quantity (GB/s, Gflop/s, relative error), so `go test -bench .`
// reproduces the shape of every result in one run.
package repro

import (
	"fmt"
	"testing"

	"repro/internal/compress"
	"repro/internal/core"
	"repro/internal/exchange"
	"repro/internal/mpi"
	"repro/internal/netsim"
	"repro/internal/precision"
)

// BenchmarkTableIPrecisionCasts measures the truncation casts of
// Table I — the "hardware supported" compression primitives of §IV-A.
func BenchmarkTableIPrecisionCasts(b *testing.B) {
	src := make([]float64, 1<<14)
	for i := range src {
		src[i] = float64(i%2000-1000) / 999
	}
	b.Run("FP64toFP32", func(b *testing.B) {
		b.SetBytes(int64(8 * len(src)))
		var sink float32
		for i := 0; i < b.N; i++ {
			for _, v := range src {
				sink = float32(v)
			}
		}
		_ = sink
	})
	b.Run("FP64toFP16", func(b *testing.B) {
		b.SetBytes(int64(8 * len(src)))
		var sink precision.Float16
		for i := 0; i < b.N; i++ {
			for _, v := range src {
				sink = precision.FromFloat64(v)
			}
		}
		_ = sink
	})
	b.Run("FP64toBF16", func(b *testing.B) {
		b.SetBytes(int64(8 * len(src)))
		var sink precision.BFloat16
		for i := 0; i < b.N; i++ {
			for _, v := range src {
				sink = precision.BFromFloat64(v)
			}
		}
		_ = sink
	})
}

// BenchmarkFig2MantissaSweep regenerates Fig. 2: the FFT round-trip
// error (reported as the "rel-err" metric) and the theoretical speedup
// as the communicated mantissa shrinks.
func BenchmarkFig2MantissaSweep(b *testing.B) {
	cfg := netsim.Summit(2)
	n := [3]int{16, 16, 16}
	for _, m := range []uint{52, 40, 28, 16, 8} {
		method := compress.Trim{M: m}
		b.Run(fmt.Sprintf("mantissa-%d", m), func(b *testing.B) {
			var r core.Result
			for i := 0; i < b.N; i++ {
				r = core.Measure[complex128](cfg, n, core.Options{
					Backend: core.BackendCompressed, Method: method,
				}, 0, true)
			}
			b.ReportMetric(r.RelErr, "rel-err")
			b.ReportMetric(64/float64(method.BitsPerValue()), "speedup-theory")
		})
	}
}

// BenchmarkFig3NodeBandwidth regenerates Fig. 3: node bandwidth of the
// default linear all-to-all vs OSC_Alltoall at 80 KB per pair (the
// "GB/s" metric is what the figure plots).
func BenchmarkFig3NodeBandwidth(b *testing.B) {
	const msg = 80 * 1024
	for _, gpus := range []int{24, 96, 192} {
		for _, algo := range []string{exchange.AlgoLinear, exchange.AlgoOSC} {
			b.Run(fmt.Sprintf("%s-%dgpus", algo, gpus), func(b *testing.B) {
				var bw float64
				for i := 0; i < b.N; i++ {
					bw = exchange.NodeBandwidthSpec(nil, netsim.Summit(gpus/6), exchange.Spec{Algo: algo}, msg, 1)
				}
				b.ReportMetric(bw/1e9, "GB/s")
			})
		}
	}
}

// BenchmarkFig4StrongScaling regenerates Fig. 4: Gflop/s of the four
// pipeline configurations on a 512³-equivalent problem.
func BenchmarkFig4StrongScaling(b *testing.B) {
	n := [3]int{32, 32, 32}
	const simScale = 16 // timed as 512³
	run := map[string]func(cfg netsim.Config) core.Result{
		"fp64": func(cfg netsim.Config) core.Result {
			return core.Measure[complex128](cfg, n, core.Options{Backend: core.BackendAlltoallv, SimScale: simScale}, 1, false)
		},
		"fp32": func(cfg netsim.Config) core.Result {
			return core.Measure[complex64](cfg, n, core.Options{Backend: core.BackendAlltoallv, SimScale: simScale}, 1, false)
		},
		"fp64-32": func(cfg netsim.Config) core.Result {
			return core.Measure[complex128](cfg, n, core.Options{Backend: core.BackendCompressed, Method: compress.Cast32{}, SimScale: simScale}, 1, false)
		},
		"fp64-16": func(cfg netsim.Config) core.Result {
			return core.Measure[complex128](cfg, n, core.Options{Backend: core.BackendCompressed, Method: compress.Cast16{}, SimScale: simScale}, 1, false)
		},
	}
	for _, gpus := range []int{24, 96} {
		for _, name := range []string{"fp64", "fp32", "fp64-32", "fp64-16"} {
			b.Run(fmt.Sprintf("%s-%dgpus", name, gpus), func(b *testing.B) {
				var r core.Result
				for i := 0; i < b.N; i++ {
					r = run[name](netsim.Summit(gpus / 6))
				}
				b.ReportMetric(r.Gflops, "Gflop/s")
			})
		}
	}
}

// BenchmarkTableIIAccuracy regenerates Table II: the relative FFT error
// of FP64, FP32, and the FP64→FP32 mixed-precision exchange.
func BenchmarkTableIIAccuracy(b *testing.B) {
	cfg := netsim.Summit(2)
	n := [3]int{32, 32, 32}
	cases := map[string]func() float64{
		"fp64": func() float64 {
			return core.Measure[complex128](cfg, n, core.Options{Backend: core.BackendAlltoallv}, 0, true).RelErr
		},
		"fp32": func() float64 {
			return core.Measure[complex64](cfg, n, core.Options{Backend: core.BackendAlltoallv}, 0, true).RelErr
		},
		"fp64-32": func() float64 {
			return core.Measure[complex128](cfg, n, core.Options{Backend: core.BackendCompressed, Method: compress.Cast32{}}, 0, true).RelErr
		},
	}
	for _, name := range []string{"fp64", "fp32", "fp64-32"} {
		b.Run(name, func(b *testing.B) {
			var e float64
			for i := 0; i < b.N; i++ {
				e = cases[name]()
			}
			b.ReportMetric(e, "rel-err")
		})
	}
}

// BenchmarkAblationWindowCaching measures the §V-A window caching gain:
// virtual µs per one-sided epoch with a cached window vs a window
// re-created every exchange.
func BenchmarkAblationWindowCaching(b *testing.B) {
	cfg := netsim.Summit(2)
	for _, cached := range []bool{true, false} {
		name := "cached"
		if !cached {
			name = "recreated"
		}
		b.Run(name, func(b *testing.B) {
			var perEpoch float64
			for i := 0; i < b.N; i++ {
				const epochs = 8
				var t float64
				mpi.Run(cfg, func(c *mpi.Comm) {
					c.Barrier()
					start := c.Now()
					var win *mpi.Win
					for e := 0; e < epochs; e++ {
						if win == nil || !cached {
							win = c.WinCreate(make([]byte, 1024))
						}
						win.Fence(nil)
					}
					end := c.AllreduceFloat64("max", c.Now())
					if c.Rank() == 0 {
						t = (end - start) / epochs
					}
				})
				perEpoch = t
			}
			b.ReportMetric(perEpoch*1e6, "µs/epoch")
		})
	}
}

// BenchmarkAblationPipeline measures the §V-B overlap gain on a
// communication-dominated exchange.
func BenchmarkAblationPipeline(b *testing.B) {
	cfg := netsim.Summit(4)
	for _, pipelined := range []bool{true, false} {
		name := "overlapped"
		if !pipelined {
			name = "synchronous"
		}
		b.Run(name, func(b *testing.B) {
			var t float64
			for i := 0; i < b.N; i++ {
				t = exchange.CompressedExchangeTimeWith(nil, cfg, compress.Cast32{}, 8, 20000, 1, pipelined)
			}
			b.ReportMetric(t*1e3, "ms/exchange")
		})
	}
}

// BenchmarkAblationNodeAwareRing measures Algorithm 3's permute[] gain.
func BenchmarkAblationNodeAwareRing(b *testing.B) {
	for _, algo := range []string{exchange.AlgoOSC, exchange.AlgoOSCNaive} {
		b.Run(algo, func(b *testing.B) {
			var bw float64
			for i := 0; i < b.N; i++ {
				bw = exchange.NodeBandwidthSpec(nil, netsim.Summit(8), exchange.Spec{Algo: algo}, 80*1024, 1)
			}
			b.ReportMetric(bw/1e9, "GB/s")
		})
	}
}

// BenchmarkToleranceDrivenFFT measures Algorithm 1 end to end across
// user tolerances: looser tolerance → stronger compression → faster.
func BenchmarkToleranceDrivenFFT(b *testing.B) {
	cfg := netsim.Summit(4)
	n := [3]int{32, 32, 32}
	for _, etol := range []float64{1e-3, 1e-6, 1e-12} {
		b.Run(fmt.Sprintf("etol-%.0e", etol), func(b *testing.B) {
			var r core.Result
			for i := 0; i < b.N; i++ {
				r = core.Measure[complex128](cfg, n, core.Options{
					Backend: core.BackendCompressed, Tolerance: etol, SimScale: 8,
				}, 1, true)
			}
			b.ReportMetric(r.Gflops, "Gflop/s")
			b.ReportMetric(r.RelErr, "rel-err")
		})
	}
}
