package main

import "testing"

// TestAnalyticErrorGate runs the example's filter and holds its largest
// deviation from the analytically filtered two-mode field to a gate: the
// deviation measured when the gate was set (32³ grid, 12 GPUs, FP64→FP32
// exchange, the deterministic virtual machine) times a margin of 2.
func TestAnalyticErrorGate(t *testing.T) {
	const measured, margin = 6.234e-8, 2
	if r := smooth(machine, n); !(r.maxErr <= measured*margin) {
		t.Errorf("max abs deviation %.3e exceeds the gate %.3e (measured %.3e × margin %g)",
			r.maxErr, measured*margin, measured, float64(margin))
	}
}
