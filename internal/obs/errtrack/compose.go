package errtrack

import (
	"fmt"
	"sort"
	"strings"
)

// StageBudget is one pipeline stage's theoretical error allowance: the
// compression method's bound on that reshape (0 for lossless stages).
// internal/core derives the ordered list for a plan's options.
type StageBudget struct {
	Label string  `json:"label"`
	Bound float64 `json:"bound"`
}

// LedgerRow is one stage of the error-accumulation ledger: the measured
// worst relative error and its composition so far, against the
// theoretical bound and its composition, plus the stage's share of the
// total accumulated squared error.
type LedgerRow struct {
	Label       string  `json:"label"`
	Bound       float64 `json:"bound"`
	BoundCum    float64 `json:"bound_cum"`
	Measured    float64 `json:"measured"`
	MeasuredCum float64 `json:"measured_cum"`
	Share       float64 `json:"share"`
	Values      int64   `json:"values"`
	OK          bool    `json:"ok"`
}

// Ledger is one cell's composed error accounting.
type Ledger struct {
	Cell string      `json:"cell"`
	Rows []LedgerRow `json:"rows"`
}

// BuildLedger composes a cell's measured stage errors against the
// ordered stage budgets. Relative errors compose multiplicatively, so
// after stage i the worst case is prod_{j≤i}(1+b_j) − 1; the same
// composition of the measured per-stage errors gives the measured
// accumulation curve the bound is compared against. When order is nil the cell's own stages (in
// first-seen order, with their event-recorded bounds) are used; passing
// core.StageBounds pins the theoretical side to the plan instead of the
// stream. Budgeted stages the cell never measured contribute their bound
// but no measurement; measured stages missing from the order are
// appended so nothing is silently dropped.
func BuildLedger(c CellReport, order []StageBudget) Ledger {
	byLabel := make(map[string]StageReport, len(c.Stages))
	for _, s := range c.Stages {
		byLabel[s.Label] = s
	}
	if order == nil {
		order = make([]StageBudget, 0, len(c.Stages))
		for _, s := range c.Stages {
			order = append(order, StageBudget{Label: s.Label, Bound: s.Bound})
		}
	} else {
		listed := make(map[string]bool, len(order))
		for _, b := range order {
			listed[b.Label] = true
		}
		var extra []StageBudget
		for _, s := range c.Stages {
			if !listed[s.Label] {
				extra = append(extra, StageBudget{Label: s.Label, Bound: s.Bound})
			}
		}
		sort.Slice(extra, func(i, j int) bool { return extra[i].Label < extra[j].Label })
		order = append(append([]StageBudget(nil), order...), extra...)
	}

	var totalSq float64
	for _, s := range c.Stages {
		totalSq += s.SumSq
	}
	led := Ledger{Cell: c.Cell, Rows: make([]LedgerRow, 0, len(order))}
	mCum, bCum := 0.0, 0.0
	for _, b := range order {
		s := byLabel[b.Label]
		bound := b.Bound
		if s.Bound > bound {
			bound = s.Bound
		}
		mCum = (1+mCum)*(1+s.WorstRel) - 1
		bCum = (1+bCum)*(1+bound) - 1
		row := LedgerRow{
			Label: b.Label, Bound: bound, BoundCum: bCum,
			Measured: s.WorstRel, MeasuredCum: mCum,
			Values: s.Values,
			// Worst relative error is non-negative, so a lossless stage
			// (bound 0) passes exactly when it measured zero error.
			OK: s.WorstRel <= bound,
		}
		if totalSq > 0 {
			row.Share = s.SumSq / totalSq
		}
		led.Rows = append(led.Rows, row)
	}
	return led
}

// OverBudget lists every stage (as "cell/stage: measured > bound") whose
// measured worst relative error exceeded its recorded bound, plus every
// stage that rejected poisoned (non-finite) measurements. Empty means
// the whole report is within budget.
func (r Report) OverBudget() []string {
	var out []string
	for _, c := range r.Cells {
		led := BuildLedger(c, nil)
		for _, row := range led.Rows {
			if !row.OK {
				out = append(out, fmt.Sprintf("%s/%s: measured %.3g > bound %.3g",
					c.Cell, row.Label, row.Measured, row.Bound))
			}
		}
		for _, s := range c.Stages {
			if s.Poisoned > 0 {
				out = append(out, fmt.Sprintf("%s/%s: %d poisoned (non-finite) measurements rejected",
					c.Cell, s.Label, s.Poisoned))
			}
		}
	}
	return out
}

// Verdict summarizes the report in one line: "errtrack PASS (...)" or
// "errtrack FAIL (...)" with the offending stages. The same string is
// produced from a run's -errtrack report and an offline replay of its
// event log.
func (r Report) Verdict() string {
	var cells, stages, values int64
	for _, c := range r.Cells {
		cells++
		for _, s := range c.Stages {
			stages++
			values += s.Values
		}
	}
	over := r.OverBudget()
	if len(over) == 0 {
		return fmt.Sprintf("errtrack PASS (%d cells, %d stages, %d values within bounds)",
			cells, stages, values)
	}
	return fmt.Sprintf("errtrack FAIL (%d over budget: %s)", len(over), strings.Join(over, "; "))
}
