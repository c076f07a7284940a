package analyze

import (
	"fmt"
	"io"
)

// DiffLine is one metric's change between two artifacts. Delta is the
// relative worsening: positive means the new run is worse (slower, or
// less bandwidth), independent of the metric's direction.
type DiffLine struct {
	Row    string // "name/gpus"
	Metric string // "seconds", "node_bw", "max_error"
	Old    float64
	New    float64
	Delta  float64
}

// DiffResult is the outcome of comparing a new artifact against a
// baseline.
type DiffResult struct {
	Threshold    float64
	Regressions  []DiffLine
	Improvements []DiffLine
	Unchanged    int
	// Missing lists baseline rows absent from the new artifact (treated
	// as regressions: a configuration silently disappearing from the
	// bench must fail the gate). Added lists new rows with no baseline.
	Missing []string
	Added   []string
	// Degraded lists new rows measured on a degraded path (lost
	// messages, crashes, self-healing repairs, per-peer fallback, or
	// recovery rollbacks/restarts) when their baseline was not, plus
	// rows that newly pay checkpoint overhead inside the measured
	// window: those numbers are not comparable to the fast path the
	// baseline recorded, so the gate fails.
	Degraded []string
	// OverBudget lists stages of the new artifact whose measured error
	// exceeds the theoretical bound, or that saw poisoned (non-finite)
	// payloads. Unlike the threshold comparisons this gate needs no
	// baseline: a bound violation is wrong in absolute terms.
	OverBudget []string
	// TunedSlower lists tuned rows of the new artifact (rows carrying a
	// Tuning section) that are worse than the best fixed-configuration
	// baseline row at the same GPU count beyond the threshold. An
	// autotuner that loses to a configuration it could have picked is a
	// regression even though the tuned row has no baseline of its own.
	TunedSlower []DiffLine
}

// Regressed reports whether the gate should fail.
func (d DiffResult) Regressed() bool {
	return len(d.Regressions) > 0 || len(d.Missing) > 0 || len(d.Degraded) > 0 ||
		len(d.OverBudget) > 0 || len(d.TunedSlower) > 0
}

// Diff compares two artifacts row by row (matched on name and GPU
// count). A metric regresses when its relative worsening exceeds
// threshold (e.g. 0.1 = 10%). Seconds and MaxError are lower-is-better;
// NodeBW is higher-is-better. Metrics absent (zero) on either side are
// skipped — a baseline without model rows does not gate them.
func Diff(oldA, newA *Artifact, threshold float64) DiffResult {
	d := DiffResult{Threshold: threshold}
	type key struct {
		name string
		gpus int
	}
	newRows := make(map[key]Row, len(newA.Rows))
	for _, r := range newA.Rows {
		newRows[key{r.Name, r.GPUs}] = r
	}
	seen := make(map[key]bool, len(oldA.Rows))
	for _, or := range oldA.Rows {
		k := key{or.Name, or.GPUs}
		seen[k] = true
		nr, ok := newRows[k]
		if !ok {
			d.Missing = append(d.Missing, rowName(or))
			continue
		}
		compare := func(metric string, o, n float64, lowerBetter bool) {
			if o <= 0 || n <= 0 {
				return
			}
			delta := (n - o) / o
			if !lowerBetter {
				delta = (o - n) / o
			}
			line := DiffLine{Row: rowName(or), Metric: metric, Old: o, New: n, Delta: delta}
			switch {
			case delta > threshold:
				d.Regressions = append(d.Regressions, line)
			case delta < -threshold:
				d.Improvements = append(d.Improvements, line)
			default:
				d.Unchanged++
			}
		}
		compare("seconds", or.Seconds, nr.Seconds, true)
		compare("node_bw", or.NodeBW, nr.NodeBW, false)
		compare("max_error", or.MaxError, nr.MaxError, true)
		oldErr := make(map[string]ErrorStageRow, len(or.Errors))
		for _, e := range or.Errors {
			oldErr[e.Label] = e
		}
		for _, e := range nr.Errors {
			if oe, ok := oldErr[e.Label]; ok {
				compare("err/"+e.Label, oe.WorstRel, e.WorstRel, true)
			}
		}
		switch {
		case nr.Faults.Degraded() && !or.Faults.Degraded():
			d.Degraded = append(d.Degraded, rowName(nr))
		case nr.Faults != nil && nr.Faults.CheckpointBytes > 0 &&
			(or.Faults == nil || or.Faults.CheckpointBytes == 0):
			// Checkpointing pays write bandwidth inside the measured
			// window; a row that newly carries that overhead is not
			// comparable to its checkpoint-free baseline.
			d.Degraded = append(d.Degraded, rowName(nr)+" [checkpoint overhead appeared]")
		}
		if or.Faults != nil && nr.Faults != nil {
			compare("mttr_seconds", or.Faults.MTTRSeconds, nr.Faults.MTTRSeconds, true)
		}
	}
	// Best fixed-configuration baseline per GPU count and pipeline
	// precision, for the tuned-vs-best-fixed gate: lowest seconds and
	// highest node bandwidth among the baseline's untuned rows. Matching
	// precision keeps the comparison inside the tuner's candidate space —
	// an fp32 pipeline wins on compute, not on a better exchange.
	type bestKey struct{ gpus, prec int }
	bestSec := make(map[bestKey]float64)
	bestBW := make(map[bestKey]float64)
	for _, or := range oldA.Rows {
		if len(or.Tuning) > 0 {
			continue
		}
		k := bestKey{or.GPUs, or.Precision}
		if or.Seconds > 0 && (bestSec[k] == 0 || or.Seconds < bestSec[k]) {
			bestSec[k] = or.Seconds
		}
		if or.NodeBW > bestBW[k] {
			bestBW[k] = or.NodeBW
		}
	}
	for _, r := range newA.Rows {
		if !seen[key{r.Name, r.GPUs}] {
			d.Added = append(d.Added, rowName(r))
		}
		if len(r.Tuning) > 0 {
			k := bestKey{r.GPUs, r.Precision}
			if b := bestSec[k]; b > 0 && r.Seconds > b*(1+threshold) {
				d.TunedSlower = append(d.TunedSlower, DiffLine{
					Row: rowName(r), Metric: "seconds", Old: b, New: r.Seconds,
					Delta: (r.Seconds - b) / b,
				})
			}
			if b := bestBW[k]; b > 0 && r.NodeBW > 0 && r.NodeBW < b*(1-threshold) {
				d.TunedSlower = append(d.TunedSlower, DiffLine{
					Row: rowName(r), Metric: "node_bw", Old: b, New: r.NodeBW,
					Delta: (b - r.NodeBW) / b,
				})
			}
		}
		// The budget gate covers every new row, matched or not.
		for _, e := range r.Errors {
			if e.Bound > 0 && e.WorstRel > e.Bound {
				d.OverBudget = append(d.OverBudget,
					fmt.Sprintf("%s %s: measured %.3g > bound %.3g", rowName(r), e.Label, e.WorstRel, e.Bound))
			}
			if e.Poisoned > 0 {
				d.OverBudget = append(d.OverBudget,
					fmt.Sprintf("%s %s: %d poisoned (non-finite) error samples", rowName(r), e.Label, e.Poisoned))
			}
		}
	}
	return d
}

func rowName(r Row) string { return fmt.Sprintf("%s/%d", r.Name, r.GPUs) }

// WriteText prints the diff outcome for the console.
func (d DiffResult) WriteText(w io.Writer) {
	for _, l := range d.Regressions {
		fmt.Fprintf(w, "REGRESSION %-24s %-9s %.4g -> %.4g (%+.1f%%, threshold %.0f%%)\n",
			l.Row, l.Metric, l.Old, l.New, 100*l.Delta, 100*d.Threshold)
	}
	for _, m := range d.Missing {
		fmt.Fprintf(w, "REGRESSION %-24s missing from new artifact\n", m)
	}
	for _, g := range d.Degraded {
		fmt.Fprintf(w, "DEGRADED   %-24s measured on a degraded path (repairs/fallback/losses/rollbacks); not comparable to baseline\n", g)
	}
	for _, o := range d.OverBudget {
		fmt.Fprintf(w, "OVERBUDGET %s\n", o)
	}
	for _, l := range d.TunedSlower {
		fmt.Fprintf(w, "TUNED-SLOWER %-22s %-9s best fixed %.4g, tuned %.4g (%+.1f%%, threshold %.0f%%)\n",
			l.Row, l.Metric, l.Old, l.New, 100*l.Delta, 100*d.Threshold)
	}
	for _, l := range d.Improvements {
		fmt.Fprintf(w, "improved   %-24s %-9s %.4g -> %.4g (%+.1f%%)\n",
			l.Row, l.Metric, l.Old, l.New, -100*l.Delta)
	}
	for _, a := range d.Added {
		fmt.Fprintf(w, "added      %-24s (no baseline)\n", a)
	}
	if !d.Regressed() && len(d.Improvements) == 0 {
		fmt.Fprintf(w, "no change beyond %.0f%% across %d comparisons\n", 100*d.Threshold, d.Unchanged)
	}
}
