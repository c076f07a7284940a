package main

import (
	"testing"

	"repro/internal/compress"
	"repro/internal/core"
)

// TestAnalyticErrorGate runs the example's three pipelines and holds
// each one's relative error against the analytic derivative to a gate:
// the error measured when the gate was set (32³ grid, 12 GPUs, the
// deterministic virtual machine) times the stated margin. It also keeps
// the example's claim: FP64 compute with an FP32 exchange is more
// accurate than the full FP32 pipeline.
func TestAnalyticErrorGate(t *testing.T) {
	errMP := derivativeError[complex128](machine, n, core.Options{Backend: core.BackendCompressed, Method: compress.Cast32{}})
	err32 := derivativeError[complex64](machine, n, core.Options{Backend: core.BackendAlltoallv})
	err64 := derivativeError[complex128](machine, n, core.Options{Backend: core.BackendAlltoallv})
	for _, g := range []struct {
		name                  string
		got, measured, margin float64
	}{
		{"FP64 pipeline", err64, 2.873e-15, 4}, // FP64 round-off
		{"FP64 compute, FP32 exchange", errMP, 9.248e-8, 2},
		{"FP32 pipeline", err32, 2.180e-7, 2},
	} {
		if gate := g.measured * g.margin; !(g.got <= gate) {
			t.Errorf("%s: rel.err %.3e exceeds the gate %.3e (measured %.3e × margin %g)",
				g.name, g.got, gate, g.measured, g.margin)
		}
	}
	if !(errMP < err32) {
		t.Errorf("FP32 exchange rel.err %.3e is not below the FP32 pipeline's %.3e", errMP, err32)
	}
}
