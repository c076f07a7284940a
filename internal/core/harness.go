package core

import (
	"math"

	"repro/internal/fft"
	"repro/internal/mpi"
	"repro/internal/netsim"
	"repro/internal/obs"
	recov "repro/internal/recover"
)

// Result summarizes one measured configuration — a row of the paper's
// figures and tables.
type Result struct {
	GPUs int
	// ForwardTime is the virtual time of one forward 3-D FFT (seconds),
	// averaged over the measured iterations.
	ForwardTime float64
	// Gflops is the 5·N·log2(N) rate of one forward transform.
	Gflops float64
	// RelErr is the global relative L2 error ‖x − IFFT(FFT(x))‖/‖x‖
	// (Table II's metric); NaN if not measured.
	RelErr float64
	// Profile is rank 0's phase breakdown of the last timed transform.
	Profile Profile
	Stats   netsim.Stats
}

// Measure builds a plan with opts on the machine, runs iters forward
// transforms on the deterministic random field, and (when wantErr) one
// forward+inverse round trip for the accuracy metric.
func Measure[C fft.Complex](cfg netsim.Config, n [3]int, opts Options, iters int, wantErr bool) Result {
	return MeasureWith[C](nil, cfg, n, opts, iters, wantErr)
}

// MeasureWith is Measure with an observability recorder attached to the
// run: phase spans, wire events, and compression metrics land in rec.
// Recording only consumes wall-clock time, never virtual time, so the
// measured results are identical with rec nil or non-nil.
func MeasureWith[C fft.Complex](rec *obs.Recorder, cfg netsim.Config, n [3]int, opts Options, iters int, wantErr bool) Result {
	res := Result{GPUs: cfg.Ranks()}
	sim := mpi.RunWith(cfg, rec, func(c *mpi.Comm) {
		measureRank[C](c, n, opts, iters, wantErr, &res)
	})
	res.finish(n, opts, sim.Stats)
	return res
}

// MeasureRecoverable is MeasureWith under the crash-recovery runtime
// (docs/ROBUSTNESS.md): the plan checkpoints after every reshape, and
// on a watchdog crash verdict the controller rolls all ranks back to
// the last committed epoch, respawns the run past the crash, and
// resumes — up to the policy's restart budget. The outcome reports the
// attempts taken and the recovery timeline; err is non-nil when the
// budget is exhausted (a typed *recov.UnrecoverableError) or the run
// failed for a reason that is not a crash.
func MeasureRecoverable[C fft.Complex](rec *obs.Recorder, cfg netsim.Config, n [3]int, opts Options, iters int, wantErr bool, pol recov.Policy) (Result, recov.Outcome, error) {
	res := Result{GPUs: cfg.Ranks()}
	ct := &recov.Controller{Policy: pol}
	out, err := ct.Run(cfg, rec, func(c *mpi.Comm, rk *recov.Rank) {
		o := opts
		o.Recovery = rk
		measureRank[C](c, n, o, iters, wantErr, &res)
	})
	if err != nil {
		return res, out, err
	}
	res.finish(n, opts, out.Result.Stats)
	return res, out, nil
}

// measureRank is one rank's body of a measurement; rank 0 publishes the
// timing, error and profile into res.
func measureRank[C fft.Complex](c *mpi.Comm, n [3]int, opts Options, iters int, wantErr bool, res *Result) {
	pl := NewPlan[C](c, n, opts)
	in := make([]C, pl.InBox().Count())
	FillBox(in, pl.InBox(), pl.InOrder(), 1)

	t0, t1 := 0.0, math.NaN()
	if iters > 0 {
		pl.Forward(in) // warmup
		c.Barrier()
		t0 = c.AllreduceFloat64("min", c.Now())
		for i := 0; i < iters; i++ {
			pl.Forward(in)
		}
		c.Barrier()
		t1 = c.AllreduceFloat64("max", c.Now())
	}

	var relErr float64
	if wantErr {
		spec := pl.Forward(in)
		// The reshape reuses its output buffer, so copy before the
		// inverse pipeline runs.
		specCopy := append([]C(nil), spec...)
		back := pl.Backward(specCopy)
		var errSq, normSq float64
		for i := range in {
			d := complex128(back[i]) - complex128(in[i])
			errSq += real(d)*real(d) + imag(d)*imag(d)
			v := complex128(in[i])
			normSq += real(v)*real(v) + imag(v)*imag(v)
		}
		errSq = c.AllreduceFloat64("sum", errSq)
		normSq = c.AllreduceFloat64("sum", normSq)
		relErr = math.Sqrt(errSq) / math.Sqrt(normSq)
	}
	if c.Rank() == 0 {
		res.ForwardTime = (t1 - t0) / float64(iters)
		res.RelErr = relErr
		res.Profile = pl.LastProfile()
	}
}

// finish derives the flop rate of the (SimScale-enlarged) transform and
// attaches the run's wire statistics.
func (res *Result) finish(n [3]int, opts Options, stats netsim.Stats) {
	s := opts.SimScale
	if s == 0 {
		s = 1
	}
	res.Gflops = fft.FlopCount(s*n[0]*s*n[1]*s*n[2]) / res.ForwardTime / 1e9
	res.Stats = stats
}
