package main

import "testing"

// TestAnalyticErrorGate runs the example's solves and holds each one's
// relative error against the manufactured solution u to a gate: the
// error measured when the gate was set (32³ grid, 12 GPUs, the
// deterministic virtual machine) times the stated margin. Exact
// communication leaves FP64 round-off; each tolerance's method must keep
// the solver's error within twice what it measured, which puts both
// gates at or below e_tol itself.
func TestAnalyticErrorGate(t *testing.T) {
	for _, g := range []struct{ etol, measured, margin float64 }{
		{0, 6.421e-16, 4}, // FP64 round-off
		{1e-4, 4.885e-5, 2},
		{1e-8, 5.047e-9, 2},
	} {
		r := solve(machine, n, g.etol)
		if gate := g.measured * g.margin; !(r.relErr <= gate) {
			t.Errorf("e_tol %g (%s): rel.err %.3e exceeds the gate %.3e (measured %.3e × margin %g)",
				g.etol, r.label, r.relErr, gate, g.measured, g.margin)
		}
	}
}
