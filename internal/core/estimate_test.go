package core

import (
	"testing"

	"repro/internal/compress"
	"repro/internal/mpi"
	"repro/internal/netsim"
	"repro/internal/obs"
)

// TestPredictExchangesLowerBound: on the compressed one-sided exchange at
// 12 ranks the model books no compression-kernel time, so there its
// prediction must not exceed the measured exchange time. The model is not
// a lower bound in general — uncompressed reshapes measure below it (see
// estimate.go).
func TestPredictExchangesLowerBound(t *testing.T) {
	cfg := netsim.Summit(2)
	n := [3]int{16, 16, 16}
	opts := Options{Backend: BackendCompressed, Method: compress.Cast32{}}
	rec := obs.New(obs.Options{Trace: true, Metrics: true})
	MeasureWith[complex128](rec, cfg, n, opts, 1, false)
	preds := PredictExchanges(cfg, n, opts, 16)
	if len(preds) != 4 {
		t.Fatalf("got %d reshape estimates, want 4", len(preds))
	}
	for _, est := range preds {
		if est.Predicted <= 0 {
			t.Errorf("%s: predicted %g, want > 0", est.Label, est.Predicted)
		}
		h, ok := rec.Metrics().Hist("exchange/" + est.Label + "/time_s")
		if !ok {
			t.Fatalf("%s: no measured exchange time recorded", est.Label)
		}
		if measured := h.Mean(); est.Predicted > measured*(1+1e-9) {
			t.Errorf("%s: predicted %gs exceeds measured %gs — on compressed OSC at 12 ranks the model must stay below the measurement",
				est.Label, est.Predicted, measured)
		}
	}
}

func TestForwardLengthValidation(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic on bad input length")
		}
	}()
	mpi.Run(machine(1), func(c *mpi.Comm) {
		pl := NewPlan[complex128](c, [3]int{4, 4, 4}, Options{})
		pl.Forward(make([]complex128, 3)) // wrong size
	})
}

func TestBackwardLengthValidation(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic on bad input length")
		}
	}()
	mpi.Run(machine(1), func(c *mpi.Comm) {
		pl := NewPlan[complex128](c, [3]int{4, 4, 4}, Options{})
		pl.Backward(make([]complex128, 5))
	})
}
