package core

import (
	"fmt"
	"math"
	"math/cmplx"
	"strings"
	"testing"

	"repro/internal/compress"
	"repro/internal/fft"
	"repro/internal/grid"
	"repro/internal/mpi"
	"repro/internal/netsim"
	"repro/internal/obs"
	recov "repro/internal/recover"
)

// realField returns the deterministic real input at (i,j,k).
func realField(seed uint64, i, j, k int) float64 {
	return real(FieldValue(seed, i, j, k))
}

// serialR2CReference computes the full complex spectrum of the real
// field and returns it (natural order over the full grid).
func serialR2CReference(n [3]int, seed uint64) []complex128 {
	data := make([]complex128, n[0]*n[1]*n[2])
	for k := 0; k < n[2]; k++ {
		for j := 0; j < n[1]; j++ {
			for i := 0; i < n[0]; i++ {
				data[i+n[0]*(j+n[1]*k)] = complex(realField(seed, i, j, k), 0)
			}
		}
	}
	fft.Forward3D(data, n[0], n[1], n[2])
	return data
}

func fillRealBrick(in []float64, b grid.Box, seed uint64) {
	idx := 0
	for k := b.Lo[2]; k < b.Hi[2]; k++ {
		for j := b.Lo[1]; j < b.Hi[1]; j++ {
			for i := b.Lo[0]; i < b.Hi[0]; i++ {
				in[idx] = realField(seed, i, j, k)
				idx++
			}
		}
	}
}

func TestR2CDistributedMatchesSerial(t *testing.T) {
	for _, tc := range []struct {
		ranks int
		n     [3]int
	}{
		{1, [3]int{8, 8, 8}},
		{6, [3]int{8, 8, 8}},
		{12, [3]int{16, 12, 8}},
	} {
		want := serialR2CReference(tc.n, 1)
		nr := [3]int{tc.n[0]/2 + 1, tc.n[1], tc.n[2]}
		got := make([]complex128, nr[0]*nr[1]*nr[2])
		mpi.Run(machine(tc.ranks), func(c *mpi.Comm) {
			pl := NewPlanR2C[complex128](c, tc.n, Options{Backend: BackendAlltoallv})
			in := make([]float64, pl.InBox().Count())
			fillRealBrick(in, pl.InBox(), 1)
			out := pl.Forward(in)
			b := pl.OutBox()
			o := pl.OutOrder()
			for i := b.Lo[0]; i < b.Hi[0]; i++ {
				for j := b.Lo[1]; j < b.Hi[1]; j++ {
					for k := b.Lo[2]; k < b.Hi[2]; k++ {
						got[i+nr[0]*(j+nr[1]*k)] = out[o.Index(b, [3]int{i, j, k})]
					}
				}
			}
		})
		var maxAbs, maxDiff float64
		for k := 0; k < nr[2]; k++ {
			for j := 0; j < nr[1]; j++ {
				for i := 0; i < nr[0]; i++ {
					ref := want[i+tc.n[0]*(j+tc.n[1]*k)]
					d := cmplx.Abs(got[i+nr[0]*(j+nr[1]*k)] - ref)
					maxDiff = math.Max(maxDiff, d)
					maxAbs = math.Max(maxAbs, cmplx.Abs(ref))
				}
			}
		}
		if maxDiff/maxAbs > 1e-12 {
			t.Errorf("ranks=%d n=%v: r2c error vs serial %g", tc.ranks, tc.n, maxDiff/maxAbs)
		}
	}
}

func TestR2CDistributedRoundTrip(t *testing.T) {
	for _, backend := range []Backend{BackendAlltoallv, BackendOSC} {
		mpi.Run(machine(6), func(c *mpi.Comm) {
			n := [3]int{8, 8, 8}
			pl := NewPlanR2C[complex128](c, n, Options{Backend: backend})
			in := make([]float64, pl.InBox().Count())
			fillRealBrick(in, pl.InBox(), 3)
			spec := append([]complex128(nil), pl.Forward(in)...)
			back := pl.Backward(spec)
			for i := range in {
				if math.Abs(back[i]-in[i]) > 1e-12 {
					t.Fatalf("backend %v: r2c round trip error %g at %d", backend, math.Abs(back[i]-in[i]), i)
				}
			}
		})
	}
}

func TestR2CCompressedRoundTrip(t *testing.T) {
	mpi.Run(machine(12), func(c *mpi.Comm) {
		n := [3]int{16, 8, 8}
		pl := NewPlanR2C[complex128](c, n, Options{Backend: BackendCompressed, Method: compress.Cast32{}})
		in := make([]float64, pl.InBox().Count())
		fillRealBrick(in, pl.InBox(), 5)
		spec := append([]complex128(nil), pl.Forward(in)...)
		back := pl.Backward(spec)
		var errSq, normSq float64
		for i := range in {
			d := back[i] - in[i]
			errSq += d * d
			normSq += in[i] * in[i]
		}
		errSq = c.AllreduceFloat64("sum", errSq)
		normSq = c.AllreduceFloat64("sum", normSq)
		rel := math.Sqrt(errSq / normSq)
		if c.Rank() == 0 && (rel > 1e-6 || rel < 1e-9) {
			t.Errorf("compressed r2c round-trip error %g outside FP32 band", rel)
		}
	})
}

func TestR2CFP32Pipeline(t *testing.T) {
	mpi.Run(machine(6), func(c *mpi.Comm) {
		n := [3]int{8, 8, 8}
		pl := NewPlanR2C[complex64](c, n, Options{Backend: BackendAlltoallv})
		in := make([]float64, pl.InBox().Count())
		fillRealBrick(in, pl.InBox(), 7)
		spec := append([]complex64(nil), pl.Forward(in)...)
		back := pl.Backward(spec)
		for i := range in {
			if math.Abs(back[i]-in[i]) > 1e-4 {
				t.Fatalf("FP32 r2c round trip error at %d", i)
			}
		}
	})
}

// TestR2CHalvesFirstReshape: the real first reshape moves half the bytes
// of the complex transform's.
func TestR2CHalvesFirstReshape(t *testing.T) {
	n := [3]int{16, 16, 16}
	cfg := machine(12)
	var realVol, cplxVol int64
	{
		res := mpi.Run(cfg, func(c *mpi.Comm) {
			pl := NewPlanR2C[complex128](c, n, Options{Backend: BackendAlltoallv})
			in := make([]float64, pl.InBox().Count())
			pl.Forward(in)
		})
		realVol = res.Stats.BytesInter + res.Stats.BytesIntra + res.Stats.BytesLocal
	}
	{
		res := mpi.Run(cfg, func(c *mpi.Comm) {
			pl := NewPlan[complex128](c, n, Options{Backend: BackendAlltoallv})
			in := make([]complex128, pl.InBox().Count())
			pl.Forward(in)
		})
		cplxVol = res.Stats.BytesInter + res.Stats.BytesIntra + res.Stats.BytesLocal
	}
	// Real pipeline: ~half the spectrum and real first exchange; total
	// well under the full complex pipeline's volume.
	if realVol >= cplxVol*3/4 {
		t.Errorf("r2c volume %d not clearly below c2c volume %d", realVol, cplxVol)
	}
}

func TestR2COddFirstDimPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	mpi.Run(machine(1), func(c *mpi.Comm) {
		NewPlanR2C[complex128](c, [3]int{9, 8, 8}, Options{})
	})
}

func TestR2CBoxesAndShapes(t *testing.T) {
	mpi.Run(machine(6), func(c *mpi.Comm) {
		n := [3]int{12, 8, 10}
		pl := NewPlanR2C[complex128](c, n, Options{Backend: BackendAlltoallv})
		if pl.nr != [3]int{7, 8, 10} {
			t.Errorf("spectrum grid %v", pl.nr)
		}
		if pl.OutBox().Size(2) != n[2] {
			t.Errorf("output %v not a z-pencil", pl.OutBox())
		}
	})
}

// TestR2CWithSimScale: the scaled-volume mode works for the real
// transform too and leaves numerics untouched.
func TestR2CWithSimScale(t *testing.T) {
	n := [3]int{8, 8, 8}
	run := func(ss int) []complex128 {
		var flat []complex128
		mpi.Run(machine(6), func(c *mpi.Comm) {
			pl := NewPlanR2C[complex128](c, n, Options{Backend: BackendAlltoallv, SimScale: ss})
			in := make([]float64, pl.InBox().Count())
			fillRealBrick(in, pl.InBox(), 9)
			out := pl.Forward(in)
			if c.Rank() == 0 {
				flat = append(flat, out...)
			}
		})
		return flat
	}
	a, b := run(1), run(4)
	if len(a) != len(b) {
		t.Fatal("shape changed under SimScale")
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("SimScale changed r2c numerics at %d", i)
		}
	}
}

// TestR2CFasterThanC2C: the half-spectrum pipeline beats the complex one
// on the virtual clock at equal problem size.
func TestR2CFasterThanC2C(t *testing.T) {
	cfg := machine(24)
	n := [3]int{32, 32, 32}
	var tR2C, tC2C float64
	mpi.Run(cfg, func(c *mpi.Comm) {
		pl := NewPlanR2C[complex128](c, n, Options{Backend: BackendAlltoallv, SimScale: 8})
		in := make([]float64, pl.InBox().Count())
		fillRealBrick(in, pl.InBox(), 1)
		pl.Forward(in)
		c.Barrier()
		t0 := c.Now()
		pl.Forward(in)
		t1 := c.AllreduceFloat64("max", c.Now())
		if c.Rank() == 0 {
			tR2C = t1 - t0
		}
	})
	mpi.Run(cfg, func(c *mpi.Comm) {
		pl := NewPlan[complex128](c, n, Options{Backend: BackendAlltoallv, SimScale: 8, PencilIO: true})
		in := make([]complex128, pl.InBox().Count())
		FillBox(in, pl.InBox(), pl.InOrder(), 1)
		pl.Forward(in)
		c.Barrier()
		t0 := c.Now()
		pl.Forward(in)
		t1 := c.AllreduceFloat64("max", c.Now())
		if c.Rank() == 0 {
			tC2C = t1 - t0
		}
	})
	if tR2C >= tC2C {
		t.Errorf("r2c %.3g not faster than c2c %.3g", tR2C, tC2C)
	}
}

// tuneMap is a fixed TunePlan: label → choice.
type tuneMap map[string]ExchangeChoice

func (m tuneMap) Choice(label string) (ExchangeChoice, bool) {
	ch, ok := m[label]
	return ch, ok
}

// r2cRun builds a PlanR2C on 12 ranks and runs fwd forward transforms
// followed by bwd backward ones, returning the worst forward deviation
// from the serial reference, the worst round-trip deviation (both
// relative to the largest reference magnitude), and the run's wire
// statistics. check == false skips the comparisons.
func r2cRun(t *testing.T, rec *obs.Recorder, n [3]int, opts Options, fwd, bwd int, check bool) (fwdErr, rtErr float64, stats netsim.Stats) {
	t.Helper()
	var want []complex128
	if check {
		want = serialR2CReference(n, 11)
	}
	var fwdDiff, fwdMax, rtDiff, rtMax float64
	res := mpi.RunWith(machine(12), rec, func(c *mpi.Comm) {
		pl := NewPlanR2C[complex128](c, n, opts)
		in := make([]float64, pl.InBox().Count())
		fillRealBrick(in, pl.InBox(), 11)
		var spec []complex128
		for i := 0; i < fwd; i++ {
			spec = append(spec[:0], pl.Forward(in)...)
		}
		var back []float64
		for i := 0; i < bwd; i++ {
			back = pl.Backward(spec)
		}
		if !check {
			return
		}
		b, o := pl.OutBox(), pl.OutOrder()
		var d, m float64
		for i := b.Lo[0]; i < b.Hi[0]; i++ {
			for j := b.Lo[1]; j < b.Hi[1]; j++ {
				for k := b.Lo[2]; k < b.Hi[2]; k++ {
					ref := want[i+n[0]*(j+n[1]*k)]
					d = math.Max(d, cmplx.Abs(spec[o.Index(b, [3]int{i, j, k})]-ref))
					m = math.Max(m, cmplx.Abs(ref))
				}
			}
		}
		fd, fm := c.AllreduceFloat64("max", d), c.AllreduceFloat64("max", m)
		d, m = 0, 0
		for i := range back {
			d = math.Max(d, math.Abs(back[i]-in[i]))
			m = math.Max(m, math.Abs(in[i]))
		}
		rd, rm := c.AllreduceFloat64("max", d), c.AllreduceFloat64("max", m)
		if c.Rank() == 0 {
			fwdDiff, fwdMax, rtDiff, rtMax = fd, fm, rd, rm
		}
	})
	if check {
		fwdErr, rtErr = fwdDiff/fwdMax, rtDiff/rtMax
	}
	return fwdErr, rtErr, res.Stats
}

// TestR2CUsesItsBackend: the real transform matches the serial reference
// and round-trips under every backend and under a tune plan covering the
// real reshape — and the real reshapes really go through the configured
// exchange in both directions, not through a two-sided stand-in.
func TestR2CUsesItsBackend(t *testing.T) {
	n := [3]int{16, 16, 16}
	cast := compress.Cast32{}
	rawReal, _, _ := obs.CompressMetricNames("r2c-real")
	for _, tc := range []struct {
		name  string
		opts  Options
		lossy bool
	}{
		{"alltoallv", Options{Backend: BackendAlltoallv}, false},
		{"osc", Options{Backend: BackendOSC}, false},
		{"bruck", Options{Backend: BackendBruck}, false},
		{"compressed", Options{Backend: BackendCompressed, Method: cast}, true},
		{"compressed-2s", Options{Backend: BackendCompressedTwoSided, Method: cast}, true},
		{"tuned-real-osc", Options{Backend: BackendAlltoallv, Tune: tuneMap{
			"r2c-real":      {Backend: BackendOSC},
			"r2c-real-back": {Backend: BackendCompressed, Method: cast},
		}}, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			rec := obs.New(obs.Options{Metrics: true})
			fwdErr, rtErr, stats := r2cRun(t, rec, n, tc.opts, 1, 1, true)
			tol := 1e-12
			if tc.lossy {
				tol = 1e-5
			}
			if fwdErr > tol || rtErr > tol {
				t.Errorf("forward error %g, round-trip error %g; want ≤ %g", fwdErr, rtErr, tol)
			}
			if tc.lossy && rtErr < 1e-10 {
				t.Errorf("round-trip error %g: the lossy exchange was not used", rtErr)
			}
			raw := rec.Metrics().Counter(rawReal)
			switch tc.name {
			case "compressed", "compressed-2s":
				if raw == 0 {
					t.Errorf("%s counter is zero: the real reshape bypassed the compressed exchange", rawReal)
				}
			case "tuned-real-osc":
				// Everything but the two real reshapes is two-sided here.
				if stats.Puts == 0 {
					t.Error("no puts: the tune plan's choices for the real reshapes were ignored")
				}
			}
		})
	}

	// Under BackendOSC each direction issues more puts than the inner
	// complex PencilIO plan alone: the real reshape uses its window.
	innerPuts := func(fwd, bwd int) int {
		nr := [3]int{n[0]/2 + 1, n[1], n[2]}
		res := mpi.Run(machine(12), func(c *mpi.Comm) {
			pl := NewPlan[complex128](c, nr, Options{Backend: BackendOSC, PencilIO: true})
			in := make([]complex128, pl.InBox().Count())
			for i := 0; i < fwd; i++ {
				pl.Forward(in)
			}
			out := make([]complex128, pl.OutBox().Count())
			for i := 0; i < bwd; i++ {
				pl.Backward(out)
			}
		})
		return res.Stats.Puts
	}
	r2cPuts := func(fwd, bwd int) int {
		_, _, stats := r2cRun(t, nil, n, Options{Backend: BackendOSC}, fwd, bwd, false)
		return stats.Puts
	}
	if got, inner := r2cPuts(1, 0), innerPuts(1, 0); got <= inner {
		t.Errorf("forward: %d puts, inner complex plan alone %d — real reshape not one-sided", got, inner)
	}
	if got, inner := r2cPuts(1, 1)-r2cPuts(1, 0), innerPuts(1, 1)-innerPuts(1, 0); got <= inner {
		t.Errorf("backward: %d puts, inner complex plan alone %d — mirror reshape not one-sided", got, inner)
	}
}

// TestR2CBackwardMirrorsForwardOnTimePlane: with a lossless backend in
// scaled-volume mode, one Backward moves exactly the bytes one Forward
// does — the mirror reshape is charged at SimScale like every other.
func TestR2CBackwardMirrorsForwardOnTimePlane(t *testing.T) {
	moved := func(fwd, bwd int) int64 {
		_, _, s := r2cRun(t, nil, [3]int{16, 16, 16}, Options{Backend: BackendAlltoallv, SimScale: 4}, fwd, bwd, false)
		return s.BytesInter + s.BytesIntra + s.BytesLocal
	}
	setup, one, both := moved(0, 0), moved(1, 0), moved(1, 1)
	if f, b := one-setup, both-one; f == 0 || f != b {
		t.Errorf("forward moved %d bytes, backward %d; want equal and non-zero", f, b)
	}
}

// TestR2CRefusesWhatItCannotHonour: options PlanR2C cannot implement
// fail at construction, naming the field, instead of being dropped.
func TestR2CRefusesWhatItCannotHonour(t *testing.T) {
	cast := compress.Cast32{}
	expectPanic := func(name, want string, build func(c *mpi.Comm)) {
		t.Helper()
		defer func() {
			msg := fmt.Sprint(recover())
			if !strings.Contains(msg, want) {
				t.Errorf("%s: panic %q does not mention %q", name, msg, want)
			}
		}()
		mpi.Run(machine(1), build)
	}
	n := [3]int{8, 8, 8}
	expectPanic("recovery", "Options.Recovery", func(c *mpi.Comm) {
		NewPlanR2C[complex128](c, n, Options{Recovery: new(recov.Rank)})
	})
	expectPanic("pencil io", "PencilIO", func(c *mpi.Comm) {
		NewPlanR2C[complex128](c, n, Options{PencilIO: true})
	})
	expectPanic("fp32 + compressed", "FP64 pipeline", func(c *mpi.Comm) {
		NewPlanR2C[complex64](c, n, Options{Backend: BackendCompressed, Method: cast})
	})
	expectPanic("fp32 + tuned compressed real reshape", "FP64 pipeline", func(c *mpi.Comm) {
		NewPlanR2C[complex64](c, n, Options{Tune: tuneMap{"r2c-real": {Backend: BackendCompressed, Method: cast}}})
	})
}
