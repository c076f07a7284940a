package core

import (
	"math"
	"math/cmplx"
	"testing"

	"repro/internal/compress"
	"repro/internal/fft"
	"repro/internal/grid"
	"repro/internal/mpi"
	"repro/internal/netsim"
)

func machine(ranks int) netsim.Config {
	if ranks%6 == 0 {
		return netsim.Summit(ranks / 6)
	}
	cfg := netsim.Summit(ranks)
	cfg.GPUsPerNode = 1
	cfg.Nodes = ranks
	return cfg
}

// serialReference computes the forward FFT of the deterministic field.
func serialReference(n [3]int, seed uint64) []complex128 {
	full := grid.Box{Hi: n}
	data := make([]complex128, n[0]*n[1]*n[2])
	FillBox(data, full, grid.Natural, seed)
	fft.Forward3D(data, n[0], n[1], n[2])
	return data
}

// gatherOutput collects each rank's output into the global natural-order
// array on the caller side.
func runDistributedForward(t *testing.T, ranks int, n [3]int, opts Options) []complex128 {
	t.Helper()
	global := make([]complex128, n[0]*n[1]*n[2])
	mpi.Run(machine(ranks), func(c *mpi.Comm) {
		pl := NewPlan[complex128](c, n, opts)
		in := make([]complex128, pl.InBox().Count())
		FillBox(in, pl.InBox(), grid.Natural, 1)
		out := pl.Forward(in)
		b := pl.OutBox()
		idx := 0
		for k := b.Lo[2]; k < b.Hi[2]; k++ {
			for j := b.Lo[1]; j < b.Hi[1]; j++ {
				for i := b.Lo[0]; i < b.Hi[0]; i++ {
					global[i+n[0]*(j+n[1]*k)] = out[indexOf(b, grid.Natural, i, j, k)]
					idx++
				}
			}
		}
	})
	return global
}

func maxRelErr(got, want []complex128) float64 {
	var maxAbs, maxDiff float64
	for i := range want {
		if a := cmplx.Abs(want[i]); a > maxAbs {
			maxAbs = a
		}
		if d := cmplx.Abs(got[i] - want[i]); d > maxDiff {
			maxDiff = d
		}
	}
	return maxDiff / maxAbs
}

func TestDistributedMatchesSerial(t *testing.T) {
	cases := []struct {
		ranks int
		n     [3]int
	}{
		{1, [3]int{8, 8, 8}},
		{2, [3]int{8, 8, 8}},
		{6, [3]int{8, 8, 8}},
		{12, [3]int{16, 8, 8}},
		{6, [3]int{8, 12, 10}}, // non-power-of-two via Bluestein
	}
	for _, tc := range cases {
		want := serialReference(tc.n, 1)
		got := runDistributedForward(t, tc.ranks, tc.n, Options{Backend: BackendAlltoallv})
		if e := maxRelErr(got, want); e > 1e-12 {
			t.Errorf("ranks=%d n=%v: distributed vs serial error %g", tc.ranks, tc.n, e)
		}
	}
}

func TestBackendsAgree(t *testing.T) {
	n := [3]int{8, 8, 8}
	want := serialReference(n, 1)
	for _, b := range []Backend{BackendOSC, BackendCompressed} {
		opts := Options{Backend: b}
		if b == BackendCompressed {
			opts.Method = compress.None{} // lossless: must be exact
		}
		got := runDistributedForward(t, 6, n, opts)
		if e := maxRelErr(got, want); e > 1e-12 {
			t.Errorf("backend %v: error vs serial %g", b, e)
		}
	}
}

func TestForwardBackwardRoundTrip(t *testing.T) {
	mpi.Run(machine(6), func(c *mpi.Comm) {
		n := [3]int{8, 8, 8}
		pl := NewPlan[complex128](c, n, Options{Backend: BackendAlltoallv})
		in := make([]complex128, pl.InBox().Count())
		FillBox(in, pl.InBox(), grid.Natural, 7)
		spec := append([]complex128(nil), pl.Forward(in)...)
		back := pl.Backward(spec)
		for i := range in {
			if cmplx.Abs(back[i]-in[i]) > 1e-12 {
				t.Fatalf("round trip error %g at %d", cmplx.Abs(back[i]-in[i]), i)
			}
		}
	})
}

func TestFP32PipelineRoundTrip(t *testing.T) {
	mpi.Run(machine(6), func(c *mpi.Comm) {
		n := [3]int{8, 8, 8}
		pl := NewPlan[complex64](c, n, Options{Backend: BackendAlltoallv})
		in := make([]complex64, pl.InBox().Count())
		FillBox(in, pl.InBox(), grid.Natural, 7)
		spec := append([]complex64(nil), pl.Forward(in)...)
		back := pl.Backward(spec)
		for i := range in {
			if cmplx.Abs(complex128(back[i]-in[i])) > 1e-4 {
				t.Fatalf("FP32 round trip error too large at %d", i)
			}
		}
	})
}

func TestCompressedFP32PanicsOnFP32Pipeline(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic for compressed FP32 pipeline")
		}
	}()
	mpi.Run(machine(1), func(c *mpi.Comm) {
		NewPlan[complex64](c, [3]int{4, 4, 4}, Options{Backend: BackendCompressed, Method: compress.Cast32{}})
	})
}

// TestAccuracyOrdering reproduces the qualitative claim of Table II /
// Fig. 2: FP64 ≪ mixed-precision (FP64 compute, FP32 comm) ≪ FP32, with
// roughly an order of magnitude between MP and FP32.
func TestAccuracyOrdering(t *testing.T) {
	cfg := machine(12)
	n := [3]int{16, 16, 16}
	e64 := Measure[complex128](cfg, n, Options{Backend: BackendAlltoallv}, 1, true).RelErr
	e32 := Measure[complex64](cfg, n, Options{Backend: BackendAlltoallv}, 1, true).RelErr
	eMP := Measure[complex128](cfg, n, Options{Backend: BackendCompressed, Method: compress.Cast32{}}, 1, true).RelErr

	if e64 > 1e-14 {
		t.Errorf("FP64 error %g too large", e64)
	}
	if !(eMP > e64*10) {
		t.Errorf("MP error %g should be well above FP64 %g", eMP, e64)
	}
	if !(e32 > eMP*3) {
		t.Errorf("FP32 error %g should be well above MP %g", e32, eMP)
	}
	if e32 < 1e-7 || e32 > 1e-4 {
		t.Errorf("FP32 error %g outside the expected range", e32)
	}
}

func TestToleranceDrivenMethodSelection(t *testing.T) {
	mpi.Run(machine(1), func(c *mpi.Comm) {
		pl := NewPlan[complex128](c, [3]int{4, 4, 4}, Options{Backend: BackendCompressed, Tolerance: 1e-7})
		if pl.opts.Method.Name() != "FP64->FP32" {
			t.Errorf("tolerance 1e-7 selected %s", pl.opts.Method.Name())
		}
	})
}

// TestErrorWithinTolerance: the e_tol contract of Algorithm 1 — the
// round-trip error stays near the requested tolerance.
func TestErrorWithinTolerance(t *testing.T) {
	cfg := machine(6)
	n := [3]int{8, 8, 8}
	for _, etol := range []float64{1e-3, 1e-6, 1e-9} {
		r := Measure[complex128](cfg, n, Options{Backend: BackendCompressed, Tolerance: etol}, 1, true)
		// The FFT is orthogonal: output error ≈ input truncation error.
		// Allow a modest growth factor for the three compressed reshapes.
		if r.RelErr > 20*etol {
			t.Errorf("etol=%g: relative error %g exceeds budget", etol, r.RelErr)
		}
	}
}

func TestCompressionSpeedsUpCommunication(t *testing.T) {
	// Communication-dominated regime (the paper's target): enough data
	// per rank that transfer time dwarfs kernel overheads.
	cfg := machine(24)
	n := [3]int{128, 64, 64}
	t64 := Measure[complex128](cfg, n, Options{Backend: BackendOSC}, 1, false).ForwardTime
	t32 := Measure[complex128](cfg, n, Options{Backend: BackendCompressed, Method: compress.Cast32{}}, 1, false).ForwardTime
	if t32 >= t64 {
		t.Errorf("compressed %.3g not faster than uncompressed OSC %.3g", t32, t64)
	}
}

func TestMeasureReportsStats(t *testing.T) {
	r := Measure[complex128](machine(6), [3]int{8, 8, 8}, Options{Backend: BackendAlltoallv}, 1, false)
	if r.GPUs != 6 || r.ForwardTime <= 0 || r.Gflops <= 0 {
		t.Errorf("bad result: %+v", r)
	}
	if r.Stats.Messages == 0 {
		t.Error("no traffic recorded")
	}
	if !math.IsNaN(r.RelErr) && r.RelErr != 0 {
		t.Errorf("unexpected RelErr %g without wantErr", r.RelErr)
	}
}

func TestFieldValueDeterministic(t *testing.T) {
	a := FieldValue(1, 3, 4, 5)
	b := FieldValue(1, 3, 4, 5)
	if a != b {
		t.Error("FieldValue not deterministic")
	}
	if FieldValue(2, 3, 4, 5) == a {
		t.Error("seed has no effect")
	}
	if real(a) < -1 || real(a) >= 1 || imag(a) < -1 || imag(a) >= 1 {
		t.Errorf("FieldValue out of range: %v", a)
	}
}

func TestFieldValueStatistics(t *testing.T) {
	var sum, sumSq float64
	n := 0
	for i := 0; i < 20; i++ {
		for j := 0; j < 20; j++ {
			for k := 0; k < 20; k++ {
				v := FieldValue(9, i, j, k)
				sum += real(v) + imag(v)
				sumSq += real(v)*real(v) + imag(v)*imag(v)
				n += 2
			}
		}
	}
	mean := sum / float64(n)
	if math.Abs(mean) > 0.02 {
		t.Errorf("field mean %g too far from 0", mean)
	}
	variance := sumSq/float64(n) - mean*mean
	if math.Abs(variance-1.0/3) > 0.02 {
		t.Errorf("field variance %g too far from 1/3", variance)
	}
}

// TestProfileBreakdown: the phase profile must account for the forward
// time and show the paper's communication dominance at scale.
func TestProfileBreakdown(t *testing.T) {
	cfg := machine(48)
	n := [3]int{32, 32, 32}
	r := Measure[complex128](cfg, n, Options{Backend: BackendAlltoallv, SimScale: 16}, 1, false)
	p := r.Profile
	if p.Total() <= 0 {
		t.Fatal("empty profile")
	}
	// Rank 0's profiled phases must roughly account for the average
	// transform time (stragglers can make either slightly larger).
	if p.Total() < 0.5*r.ForwardTime || p.Total() > 2*r.ForwardTime {
		t.Errorf("profile total %.3g inconsistent with forward time %.3g", p.Total(), r.ForwardTime)
	}
	// At 512³-equivalent volume on 48 GPUs the exchange dominates (§I).
	if frac := p.Exchange / p.Total(); frac < 0.5 {
		t.Errorf("communication fraction %.2f unexpectedly low", frac)
	}
	if p.FFT <= 0 || p.Pack <= 0 || p.Unpack <= 0 {
		t.Errorf("missing phases: %+v", p)
	}
}

// TestProfileResetBetweenRuns: each Forward reports only its own phases.
func TestProfileResetBetweenRuns(t *testing.T) {
	mpi.Run(machine(6), func(c *mpi.Comm) {
		n := [3]int{8, 8, 8}
		pl := NewPlan[complex128](c, n, Options{Backend: BackendAlltoallv})
		in := make([]complex128, pl.InBox().Count())
		FillBox(in, pl.InBox(), pl.InOrder(), 1)
		pl.Forward(in)
		first := pl.LastProfile().Total()
		pl.Forward(in)
		second := pl.LastProfile().Total()
		if second > 1.5*first {
			t.Errorf("profile accumulates across runs: %g then %g", first, second)
		}
	})
}
