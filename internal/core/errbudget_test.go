package core

import (
	"math"
	"reflect"
	"strings"
	"testing"

	"repro/internal/compress"
	"repro/internal/netsim"
	"repro/internal/obs"
	"repro/internal/obs/errtrack"
)

// measureTracked runs one compressed pipeline with an event log and
// error tracker attached and returns the tracker's report.
func measureTracked(t *testing.T, cfg netsim.Config, opts Options) errtrack.Report {
	t.Helper()
	rec := obs.New(obs.Options{Metrics: true})
	log := obs.NewEventLog()
	trk := errtrack.New()
	log.Observe(trk.Observe)
	rec.SetEventLog(log)
	res := MeasureWith[complex128](rec, cfg, [3]int{16, 16, 16}, opts, 1, false)
	if res.ForwardTime <= 0 {
		t.Fatalf("forward time = %v", res.ForwardTime)
	}
	return trk.Snapshot()
}

// TestMeasuredCompositionWithinBounds is the acceptance check of the
// error-provenance layer: across a seeded compressor sweep, the
// measured per-stage error composition must never exceed the
// theoretical bound composition prod(1+b_i)−1 from StageBounds.
func TestMeasuredCompositionWithinBounds(t *testing.T) {
	methods := []compress.Method{
		compress.Cast32{},
		compress.Cast16{},
		compress.CastBF16{},
		compress.Trim{M: 16},
	}
	for _, m := range methods {
		t.Run(m.Name(), func(t *testing.T) {
			opts := Options{Backend: BackendCompressed, Method: m}
			rep := measureTracked(t, machine(12), opts)
			if len(rep.Cells) != 1 {
				t.Fatalf("cells = %d, want 1", len(rep.Cells))
			}
			budgets := StageBounds(opts, false)
			if len(budgets) != 4 {
				t.Fatalf("StageBounds = %d stages, want 4", len(budgets))
			}
			led := errtrack.BuildLedger(rep.Cells[0], budgets)
			if len(led.Rows) != 4 {
				t.Fatalf("ledger rows = %d, want 4 (stages: %+v)", len(led.Rows), rep.Cells[0].Stages)
			}
			for _, r := range led.Rows {
				if r.Values == 0 {
					t.Errorf("stage %s measured no values", r.Label)
				}
				if !r.OK {
					t.Errorf("stage %s over budget: measured %g > bound %g", r.Label, r.Measured, r.Bound)
				}
				if r.MeasuredCum > r.BoundCum {
					t.Errorf("stage %s: composed measured %g exceeds composed bound %g",
						r.Label, r.MeasuredCum, r.BoundCum)
				}
			}
			if over := rep.OverBudget(); len(over) != 0 {
				t.Errorf("OverBudget = %v", over)
			}
		})
	}
}

// TestStageBoundsShape pins the budget lists drivers feed to the ledger.
func TestStageBoundsShape(t *testing.T) {
	opts := Options{Backend: BackendCompressed, Method: compress.Cast16{}}
	fwd := StageBounds(opts, false)
	if len(fwd) != 4 || fwd[0].Label != "fwd0" || fwd[3].Label != "fwd3" {
		t.Fatalf("forward bounds = %+v", fwd)
	}
	for _, b := range fwd {
		if b.Bound != (compress.Cast16{}).ErrorBound() {
			t.Fatalf("bound = %v", b.Bound)
		}
	}
	bwd := StageBounds(opts, true)
	if bwd[0].Label != "bwd0" {
		t.Fatalf("inverse bounds = %+v", bwd)
	}
	opts.PencilIO = true
	if got := StageBounds(opts, false); len(got) != 2 {
		t.Fatalf("pencil bounds = %+v", got)
	}
	lossless := StageBounds(Options{Backend: BackendAlltoallv}, false)
	for _, b := range lossless {
		if b.Bound != 0 {
			t.Fatalf("lossless bound = %v", b.Bound)
		}
	}
}

// TestErrtrackZeroCostWhenOff is the non-perturbation contract: runs
// with and without the whole telemetry stack attached — event log, its
// JSONL sink and the error tracker — produce bit-identical virtual
// times and accuracy, under both engines. Telemetry is wall-clock-only
// bookkeeping; the moment it shifts a virtual timestamp, it is
// perturbing the experiment.
func TestErrtrackZeroCostWhenOff(t *testing.T) {
	opts := Options{Backend: BackendCompressed, Method: compress.Cast16{}}
	n := [3]int{16, 16, 16}
	for _, parallel := range []bool{false, true} {
		cfg := machine(12)
		cfg.Parallel = parallel

		off := Measure[complex128](cfg, n, opts, 1, true)

		rec := obs.New(obs.Options{Metrics: true})
		log := obs.NewEventLog()
		trk := errtrack.New()
		log.Observe(trk.Observe)
		var sink strings.Builder
		log.SetSink(&sink)
		rec.SetEventLog(log)
		on := MeasureWith[complex128](rec, cfg, n, opts, 1, true)

		if off.ForwardTime != on.ForwardTime || off.Gflops != on.Gflops {
			t.Errorf("parallel=%v: tracked run shifted virtual time: off %v/%v on %v/%v",
				parallel, off.ForwardTime, off.Gflops, on.ForwardTime, on.Gflops)
		}
		if off.RelErr != on.RelErr && !(math.IsNaN(off.RelErr) && math.IsNaN(on.RelErr)) {
			t.Errorf("parallel=%v: RelErr differs: %v vs %v", parallel, off.RelErr, on.RelErr)
		}
		if len(trk.Snapshot().Cells) == 0 {
			t.Errorf("parallel=%v: tracked run recorded nothing", parallel)
		}
		if n := strings.Count(sink.String(), "\n"); int64(n) != log.Total() || log.SinkErr() != nil {
			t.Errorf("parallel=%v: sink holds %d lines of %d events (sink error %v)", parallel, n, log.Total(), log.SinkErr())
		}
		if !strings.Contains(sink.String(), `"kind":"`+obs.EventErrAttr+`"`) {
			t.Errorf("parallel=%v: sink carries no %s events", parallel, obs.EventErrAttr)
		}
	}
}

// TestTrackerDeterministicAcrossEngines demands the snapshot itself —
// aggregates, pair matrix, ledger — be identical between the sequential
// and parallel engines, event order notwithstanding.
func TestTrackerDeterministicAcrossEngines(t *testing.T) {
	opts := Options{Backend: BackendCompressed, Method: compress.Cast32{}}
	var reports []errtrack.Report
	for _, parallel := range []bool{false, true} {
		cfg := machine(12)
		cfg.Parallel = parallel
		reports = append(reports, measureTracked(t, cfg, opts))
	}
	a, b := reports[0], reports[1]
	if len(a.Cells) != len(b.Cells) {
		t.Fatalf("cell counts differ: %d vs %d", len(a.Cells), len(b.Cells))
	}
	for i := range a.Cells {
		sa, sb := a.Cells[i].Stages, b.Cells[i].Stages
		if len(sa) != len(sb) {
			t.Fatalf("stage counts differ: %d vs %d", len(sa), len(sb))
		}
		for j := range sa {
			x, y := sa[j], sb[j]
			// Snapshots fold sums in sorted pair/series order, so even the
			// summed fields (SumSq, RMS, Drift) must agree to the bit; the
			// whole report is a pure function of the event multiset.
			if !reflect.DeepEqual(x, y) {
				t.Errorf("stage %s diverges across engines:\nseq %+v\npar %+v", x.Label, x, y)
			}
		}
	}
	if a.Verdict() != b.Verdict() {
		t.Errorf("verdicts differ: %q vs %q", a.Verdict(), b.Verdict())
	}
}
