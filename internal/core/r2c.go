package core

import (
	"repro/internal/fft"
	"repro/internal/grid"
	"repro/internal/mpi"
	"repro/internal/obs"
)

// PlanR2C is the real-to-complex distributed 3-D FFT (heFFTe's
// fft3d_r2c): real input bricks are reshaped to x-pencils, transformed
// with half-length real FFTs into the non-redundant half spectrum
// (n0/2+1 bins), and the remaining stages run the complex pipeline on
// the reduced grid. Real input halves both the first reshape's volume
// and the first transform stage's work. The real reshape and its
// backward mirror are the same reshape the complex stages use, over
// float64 elements, so every backend and tune plan applies to them
// (labels r2c-real and r2c-real-back).
//
// Output is left as z-pencils of the reduced grid in OutOrder layout
// (the reduced-reshape configuration); Backward accepts the same.
type PlanR2C[C fft.Complex] struct {
	n  [3]int // real grid
	nr [3]int // reduced spectrum grid {n0/2+1, n1, n2}

	inner *Plan[C] // complex pipeline over nr (PencilIO configuration)

	// Real reshapes: bricks of n → x-pencils of n, and back.
	fwd, bwd *reshape[float64]
	pencil   []float64 // c2r output (x-pencil of n)
	spec     []C       // r2c output (x̃-pencil of nr)

	r2c    *fft.PlanR2C[C]
	xbatch int
	cost   float64 // one r2c/c2r kernel stage on the simulated grid
}

// NewPlanR2C collectively builds a real-transform plan for an even
// n[0]×n[1]×n[2] grid.
func NewPlanR2C[C fft.Complex](c *mpi.Comm, n [3]int, opts Options) *PlanR2C[C] {
	if n[0]%2 != 0 {
		panic("core: r2c requires an even first dimension")
	}
	if opts.PencilIO {
		panic("core: PlanR2C implies pencil output; do not set PencilIO")
	}
	if opts.Recovery != nil {
		// The stages here drive the reshapes directly, not through
		// Plan.step, so nothing would be checkpointed.
		panic("core: PlanR2C does not support Options.Recovery")
	}
	p := c.Size()
	me := c.Rank()
	nr := [3]int{n[0]/2 + 1, n[1], n[2]}

	opts.PencilIO = true
	pl := &PlanR2C[C]{
		n:  n,
		nr: nr,
		// The inner plan owns the complex reshapes, FFT stages, stream,
		// and window caches over the reduced grid.
		inner: NewPlan[C](c, nr, opts),
	}
	pp := &pl.inner.pipe

	s := pp.opts.SimScale
	ns := [3]int{s * n[0], s * n[1], s * n[2]}
	brick := layout{0, stageDecomp(n, 0, p), stageDecomp(ns, 0, p), grid.Natural}
	pencil := layout{1, stageDecomp(n, 1, p), stageDecomp(ns, 1, p), grid.Natural}
	wire := realCodec(pp.precBits)
	pl.fwd = newReshape(pp, wire, brick, pencil, "r2c-real")
	pl.bwd = newReshape(pp, wire, pencil, brick, "r2c-real-back")

	pl.r2c = fft.NewPlanR2C[C](n[0])
	pl.xbatch = pencil.decomp.Box(me).Count() / n[0]
	pl.pencil = make([]float64, pencil.decomp.Box(me).Count())
	pl.spec = make([]C, pl.xbatch*pl.r2c.SpectrumLen())
	// r2c along x on the GPU: half-length complex FFTs plus untangle.
	pl.cost = pp.opts.Device.FFTCost(s*n[0]/2, pl.xbatch*s*s, pp.precBits)
	return pl
}

// InBox returns this rank's real input brick (natural order).
func (pl *PlanR2C[C]) InBox() grid.Box { return pl.fwd.fromBox }

// OutBox returns this rank's share of the reduced spectrum grid
// (a z-pencil of {n0/2+1, n1, n2}).
func (pl *PlanR2C[C]) OutBox() grid.Box { return pl.inner.OutBox() }

// OutOrder returns the output memory layout (z fastest).
func (pl *PlanR2C[C]) OutOrder() grid.Order { return pl.inner.OutOrder() }

// Forward computes the half-spectrum 3-D DFT of this rank's real brick
// (unscaled). The result (OutBox data in OutOrder layout) is owned by
// the plan and valid until the next call.
func (pl *PlanR2C[C]) Forward(in []float64) []C {
	inner := pl.inner
	inner.profile = Profile{}
	pencil := pl.fwd.execute(in)
	inner.kernel(obs.PhaseFFT, &inner.profile.FFT, 0, pl.cost, func() {
		pl.r2c.ForwardBatch(pencil, pl.spec, pl.xbatch)
	})

	// Remaining complex stages on the reduced grid (skip inner's axis-0
	// FFT: the r2c stage replaced it).
	data := inner.fwd[0].execute(pl.spec)
	inner.fftStage(data, 1, fft.Forward)
	data = inner.fwd[1].execute(data)
	inner.fftStage(data, 2, fft.Forward)
	return data
}

// Backward inverts Forward (scaled by 1/(n0·n1·n2)): z-pencil spectrum
// in, real brick out. spec is not modified. The result is owned by the
// plan and valid until the next call.
func (pl *PlanR2C[C]) Backward(spec []C) []float64 {
	inner := pl.inner
	inner.profile = Profile{}
	data := append(inner.pencilScratch[:0], spec...)
	inner.fftStage(data, 2, fft.Inverse)
	data = inner.bwd[0].execute(data)
	inner.fftStage(data, 1, fft.Inverse)
	data = inner.bwd[1].execute(data)

	// c2r along x (includes the 1/n0 factor), then 1/(n1·n2).
	inner.kernel(obs.PhaseFFT, &inner.profile.FFT, 0, pl.cost, func() {
		pl.r2c.InverseBatch(data, pl.pencil, pl.xbatch)
		scale := 1 / float64(pl.n[1]*pl.n[2])
		for i := range pl.pencil {
			pl.pencil[i] *= scale
		}
	})
	return pl.bwd.execute(pl.pencil)
}
