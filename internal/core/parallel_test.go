package core

import (
	"math"
	"reflect"
	"testing"

	"repro/internal/compress"
	"repro/internal/mpi"
	"repro/internal/netsim"
)

// TestParallelMeasureMatchesSequential runs the full distributed FFT
// pipeline — plan construction, reshapes, compression kernels on the
// GPU model, accuracy round trip — under both engine modes and demands
// bit-identical Results. This is the top-of-stack determinism check:
// everything below (exchange, mpi, gpu, netsim) must agree for these
// numbers to match exactly.
func TestParallelMeasureMatchesSequential(t *testing.T) {
	n := [3]int{16, 16, 16}
	cases := []struct {
		name string
		opts Options
	}{
		{"alltoallv", Options{Backend: BackendAlltoallv}},
		{"osc", Options{Backend: BackendOSC}},
		{"compressed-32", Options{Backend: BackendCompressed, Method: compress.Cast32{}}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cfg := netsim.Summit(1)
			seq := Measure[complex128](cfg, n, tc.opts, 1, true)
			cfg.Parallel = true
			par := Measure[complex128](cfg, n, tc.opts, 1, true)
			if seq.ForwardTime != par.ForwardTime || seq.Gflops != par.Gflops {
				t.Errorf("times differ: seq %v/%v par %v/%v",
					seq.ForwardTime, seq.Gflops, par.ForwardTime, par.Gflops)
			}
			if seq.RelErr != par.RelErr && !(math.IsNaN(seq.RelErr) && math.IsNaN(par.RelErr)) {
				t.Errorf("RelErr differs: seq %v par %v", seq.RelErr, par.RelErr)
			}
			if seq.Stats != par.Stats {
				t.Errorf("Stats differ:\nseq %+v\npar %+v", seq.Stats, par.Stats)
			}
			if !reflect.DeepEqual(seq.Profile, par.Profile) {
				t.Errorf("profiles differ:\nseq %+v\npar %+v", seq.Profile, par.Profile)
			}
		})
	}
}

// TestParallelR2CMatchesSequential puts the real transform — its two
// float64 reshapes included — inside the same contract: a forward and a
// backward PlanR2C transform give bit-identical clocks, wire statistics,
// profiles and data under both engines.
func TestParallelR2CMatchesSequential(t *testing.T) {
	type outcome struct {
		Res     netsim.Result
		Profile Profile
		Spec    []complex128
		Back    []float64
	}
	n := [3]int{16, 16, 16}
	for _, tc := range []struct {
		name string
		opts Options
	}{
		{"osc", Options{Backend: BackendOSC, SimScale: 2}},
		{"compressed-32", Options{Backend: BackendCompressed, Method: compress.Cast32{}, SimScale: 2}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			run := func(parallel bool) outcome {
				cfg := netsim.Summit(2)
				cfg.Parallel = parallel
				var out outcome
				out.Res = mpi.Run(cfg, func(c *mpi.Comm) {
					pl := NewPlanR2C[complex128](c, n, tc.opts)
					in := make([]float64, pl.InBox().Count())
					fillRealBrick(in, pl.InBox(), 13)
					spec := append([]complex128(nil), pl.Forward(in)...)
					back := pl.Backward(spec)
					if c.Rank() == 0 {
						out.Profile = pl.LastProfile()
						out.Spec = spec
						out.Back = append([]float64(nil), back...)
					}
				})
				return out
			}
			if seq, par := run(false), run(true); !reflect.DeepEqual(seq, par) {
				t.Errorf("engines disagree:\nseq %+v %+v\npar %+v %+v", seq.Res, seq.Profile, par.Res, par.Profile)
			}
		})
	}
}
