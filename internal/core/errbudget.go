package core

import (
	"strconv"

	"repro/internal/obs/errtrack"
)

// StageBounds returns the theoretical per-stage error budgets of a
// plan's reshape pipeline, in execution order: one entry per reshape
// (fwd0..3, or fwd0..1 with PencilIO; bwd labels when inverse), each
// carrying the error bound of the method its reshape runs (a tune
// plan's winner where it covers the label) — zero for lossless
// backends. Feeding the list to errtrack.BuildLedger pins the
// theoretical side of the error-accumulation ledger to the plan instead
// of to whatever bounds the event stream happened to record.
func StageBounds(opts Options, inverse bool) []errtrack.StageBudget {
	o := opts.withDefaults()
	stages := 4
	if o.PencilIO {
		stages = 2
	}
	prefix := "fwd"
	if inverse {
		prefix = "bwd"
	}
	out := make([]errtrack.StageBudget, stages)
	for i := range out {
		label := prefix + strconv.Itoa(i)
		b := 0.0
		if ch := o.choice(label); ch.Backend.compressed() && ch.Method != nil {
			b = ch.Method.ErrorBound()
		}
		out[i] = errtrack.StageBudget{Label: label, Bound: b}
	}
	return out
}
