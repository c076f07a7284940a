package main

import "testing"

// TestAnalyticErrorGate runs the example's two integrations and holds
// each one's relative error against the analytic solution
// e^{−9αt}·sin(3x) to a gate: the error measured when the gate was set
// (32³ grid, 12 GPUs, 50 steps, the deterministic virtual machine) times
// the stated margin. Exact communication leaves FP64 round-off; the
// compressed run must keep its error within twice what it measured,
// which is below its e_tol.
func TestAnalyticErrorGate(t *testing.T) {
	for _, g := range []struct{ etol, measured, margin float64 }{
		{0, 2.543e-15, 4}, // FP64 round-off
		{1e-7, 3.990e-8, 2},
	} {
		relErr, _ := integrate(machine, n, g.etol)
		if gate := g.measured * g.margin; !(relErr <= gate) {
			t.Errorf("e_tol %g: rel.err %.3e exceeds the gate %.3e (measured %.3e × margin %g)",
				g.etol, relErr, gate, g.measured, g.margin)
		}
	}
}
