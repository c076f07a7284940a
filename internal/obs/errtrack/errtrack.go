// Package errtrack is the numerical-error provenance layer of the
// telemetry stack. The paper trades bounded compression error for
// exchange speed; this package answers *where* that error came from: it
// aggregates the per-peer error_attribution events the compressed
// exchanges emit (one per destination block per epoch) into a ledger
// keyed by run cell, reshape stage, and (rank, peer) pair, and composes
// the measured per-stage errors into an accumulation curve that is
// compared against the theoretical per-stage bound composition
// prod(1+b_i)−1 from internal/core.
//
// The Tracker is a pure event-log observer: register it with
// log.Observe(tracker.Observe) for a live run, or feed it a recorded
// JSONL stream line by line for an offline replay. Both paths run the
// same code, so a run's -errtrack report and a replay of its event log
// derive identical verdicts by construction. Because it only
// consumes events, the layer inherits the telemetry contract: zero cost
// when no event log is attached, and never a participant in virtual
// time.
package errtrack

import (
	"math"
	"sort"
	"sync"

	"repro/internal/obs"
)

// Stat is the block-level error statistic of one measured unit: N
// values whose worst relative error was MaxRel, worst absolute error
// MaxAbs, and squared absolute error sum SumSq.
type Stat struct {
	N      int64
	MaxRel float64
	MaxAbs float64
	SumSq  float64
}

// Merge folds o into s.
func (s *Stat) Merge(o Stat) {
	s.N += o.N
	if o.MaxRel > s.MaxRel {
		s.MaxRel = o.MaxRel
	}
	if o.MaxAbs > s.MaxAbs {
		s.MaxAbs = o.MaxAbs
	}
	s.SumSq += o.SumSq
}

// RMS returns the root-mean-square absolute error (0 when empty).
func (s Stat) RMS() float64 {
	if s.N == 0 {
		return 0
	}
	return math.Sqrt(s.SumSq / float64(s.N))
}

// finite reports whether every component of the stat is usable: counts
// non-negative and every float finite. Corrupted payloads under fault
// injection can push NaN/Inf through an error measurement; one such
// block must not poison a whole stage's ledger.
func (s Stat) finite() bool {
	return s.N >= 0 &&
		!math.IsNaN(s.MaxRel) && !math.IsInf(s.MaxRel, 0) &&
		!math.IsNaN(s.MaxAbs) && !math.IsInf(s.MaxAbs, 0) &&
		!math.IsNaN(s.SumSq) && !math.IsInf(s.SumSq, 0) && s.SumSq >= 0
}

// pairKey identifies one directed (sender, destination) pair.
type pairKey struct{ rank, peer int }

// seriesPoint is one attribution observation on the virtual timeline,
// kept for the budget-burn rendering and drift estimation.
type seriesPoint struct {
	t    float64
	rank int
	peer int
	v    float64 // the block's worst relative error
}

// stage aggregates one reshape label within one cell.
type stage struct {
	label    string
	bound    float64 // the method's configured bound, from the events
	worst    Stat    // aggregate over all pairs and epochs
	pairs    map[pairKey]*Stat
	dropped  int64 // pair entries not retained (MaxPairs)
	poisoned int64 // non-finite stats rejected
	series   []seriesPoint
	seriesN  int64 // observations offered to the series (≥ len(series))
}

// cell is one run/cell's set of stages.
type cell struct {
	label  string
	stages map[string]*stage
	order  []string // stage labels in first-seen order
}

// Tracker builds the provenance ledger from the event stream. Safe for
// concurrent use (event-log observers may run from several goroutines).
// A nil *Tracker ignores everything.
type Tracker struct {
	// MaxPairs bounds the retained (rank, peer) entries per stage; excess
	// pairs still merge into the stage aggregate and are counted as
	// dropped, never silently discarded. Set before the first event.
	MaxPairs int
	// MaxSeries bounds the per-stage timeline points kept for burn
	// rendering; later points are counted, not stored.
	MaxSeries int

	mu    sync.Mutex
	cells []*cell
	byKey map[string]*cell
	cur   *cell
}

// Defaults for the tracker's retention bounds.
const (
	DefaultMaxPairs  = 1 << 12
	DefaultMaxSeries = 1 << 14
)

// New creates a tracker with the default retention bounds.
func New() *Tracker {
	return &Tracker{MaxPairs: DefaultMaxPairs, MaxSeries: DefaultMaxSeries}
}

// StartCell opens a new attribution cell (one bench cell, chaos seed, or
// run); subsequent records land in it. Reusing a label reopens the
// existing cell, so replays keyed by run markers stay idempotent.
func (t *Tracker) StartCell(label string) {
	if t == nil {
		return
	}
	if label == "" {
		label = "run"
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.cur = t.cellLocked(label)
}

func (t *Tracker) cellLocked(label string) *cell {
	if t.byKey == nil {
		t.byKey = make(map[string]*cell)
	}
	c := t.byKey[label]
	if c == nil {
		c = &cell{label: label, stages: make(map[string]*stage)}
		t.byKey[label] = c
		t.cells = append(t.cells, c)
	}
	return c
}

// Record folds one measured block into the ledger: rank sent peer a
// block on the reshape stage labelled label, under the method bound
// bound, and the round-trip measured s. Non-finite stats are rejected
// and counted (Poisoned), never merged.
func (t *Tracker) Record(at float64, rank int, label string, peer int, bound float64, s Stat) {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.cur == nil {
		t.cur = t.cellLocked("run")
	}
	st := t.cur.stages[label]
	if st == nil {
		st = &stage{label: label, pairs: make(map[pairKey]*Stat)}
		t.cur.stages[label] = st
		t.cur.order = append(t.cur.order, label)
	}
	if bound > st.bound {
		st.bound = bound
	}
	if !s.finite() {
		st.poisoned++
		return
	}
	st.worst.Merge(s)
	k := pairKey{rank, peer}
	if ps := st.pairs[k]; ps != nil {
		ps.Merge(s)
	} else if len(st.pairs) < t.maxPairs() {
		cp := s
		st.pairs[k] = &cp
	} else {
		st.dropped++
	}
	st.seriesN++
	if len(st.series) < t.maxSeries() {
		st.series = append(st.series, seriesPoint{t: at, rank: rank, peer: peer, v: s.MaxRel})
	}
}

func (t *Tracker) maxPairs() int {
	if t.MaxPairs > 0 {
		return t.MaxPairs
	}
	return DefaultMaxPairs
}

func (t *Tracker) maxSeries() int {
	if t.MaxSeries > 0 {
		return t.MaxSeries
	}
	return DefaultMaxSeries
}

// Observe is the event-log observer: run markers open cells,
// error-attribution events land in the ledger, everything else is
// ignored. Register with log.Observe(tracker.Observe) for live runs or
// feed a recorded stream through it for replays.
func (t *Tracker) Observe(ev obs.Event) {
	if t == nil {
		return
	}
	switch ev.Kind {
	case obs.EventRun:
		t.StartCell(ev.Label)
	case obs.EventErrAttr:
		t.Record(ev.T, ev.Rank, ev.Label, ev.Peer, ev.Bound, Stat{
			N:      ev.N,
			MaxRel: ev.Value,
			MaxAbs: ev.MaxAbs,
			SumSq:  ev.RMS * ev.RMS * float64(ev.N),
		})
	}
}

// AttrEvent renders one measured block as the error_attribution event
// the exchanges emit — the single wire format Observe understands.
func AttrEvent(at float64, label string, peer int, bound float64, s Stat) obs.Event {
	return obs.Event{
		T: at, Kind: obs.EventErrAttr, Label: label, Peer: peer,
		Value: s.MaxRel, Bound: bound, MaxAbs: s.MaxAbs, RMS: s.RMS(), N: s.N,
	}
}

// PairStat is one (rank, peer) cell of the attribution matrix.
type PairStat struct {
	Rank   int     `json:"rank"`
	Peer   int     `json:"peer"`
	N      int64   `json:"n"`
	MaxRel float64 `json:"max_rel"`
	MaxAbs float64 `json:"max_abs"`
	RMS    float64 `json:"rms"`
}

// TimePoint is one budget-burn sample: the worst relative error of one
// measured block at virtual time T.
type TimePoint struct {
	T      float64 `json:"t"`
	Rank   int     `json:"rank"`
	Peer   int     `json:"peer"`
	MaxRel float64 `json:"max_rel"`
}

// StageReport is one reshape stage's aggregated attribution.
type StageReport struct {
	Label        string      `json:"label"`
	Bound        float64     `json:"bound"`
	Values       int64       `json:"values"`
	WorstRel     float64     `json:"worst_rel"`
	MaxAbs       float64     `json:"max_abs"`
	RMS          float64     `json:"rms"`
	SumSq        float64     `json:"sum_sq"`
	Poisoned     int64       `json:"poisoned,omitempty"`
	Drift        float64     `json:"drift,omitempty"`
	Pairs        []PairStat  `json:"pairs,omitempty"`
	DroppedPairs int64       `json:"dropped_pairs,omitempty"`
	Series       []TimePoint `json:"series,omitempty"`
	SeriesTotal  int64       `json:"series_total,omitempty"`
}

// CellReport is one cell's set of stage reports, in first-seen order.
type CellReport struct {
	Cell   string        `json:"cell"`
	Stages []StageReport `json:"stages"`
}

// ReportSchema versions the Report JSON (the -errtrack artifact).
const ReportSchema = 1

// Report is the tracker's externally visible state.
type Report struct {
	Schema int          `json:"schema"`
	Cells  []CellReport `json:"cells"`
}

// Snapshot copies the ledger into a Report. Pair matrices and series are
// sorted by deterministic keys, so two trackers that saw the same event
// multiset (live vs. replay, sequential vs. parallel engine) snapshot
// byte-identically as long as retention bounds were not exceeded.
func (t *Tracker) Snapshot() Report {
	r := Report{Schema: ReportSchema}
	if t == nil {
		return r
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	for _, c := range t.cells {
		cr := CellReport{Cell: c.label}
		for _, label := range c.order {
			cr.Stages = append(cr.Stages, c.stages[label].report())
		}
		r.Cells = append(r.Cells, cr)
	}
	return r
}

func (st *stage) report() StageReport {
	sr := StageReport{
		Label:    st.label,
		Bound:    st.bound,
		Values:   st.worst.N,
		WorstRel: st.worst.MaxRel,
		MaxAbs:   st.worst.MaxAbs,
		RMS:      st.worst.RMS(),
		SumSq:    st.worst.SumSq,
		Poisoned: st.poisoned,
		Pairs:    make([]PairStat, 0, len(st.pairs)),

		DroppedPairs: st.dropped,
		SeriesTotal:  st.seriesN,
	}
	keys := make([]pairKey, 0, len(st.pairs))
	for k := range st.pairs {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].rank != keys[j].rank {
			return keys[i].rank < keys[j].rank
		}
		return keys[i].peer < keys[j].peer
	})
	var pairSq float64
	for _, k := range keys {
		s := st.pairs[k]
		pairSq += s.SumSq
		sr.Pairs = append(sr.Pairs, PairStat{
			Rank: k.rank, Peer: k.peer,
			N: s.N, MaxRel: s.MaxRel, MaxAbs: s.MaxAbs, RMS: s.RMS(),
		})
	}
	if st.dropped == 0 && len(keys) > 0 {
		// Re-derive the squared-error sum by folding the sorted pair
		// stats: a pair's own sum accumulates in its rank's program order
		// (deterministic under both engines), so this fixed fold order
		// makes the stage aggregate a pure function of the event multiset
		// — arrival-order summation differs across engines in the last
		// ulp. With dropped pairs the arrival-order sum stands, as the
		// retained pairs no longer carry the whole stage.
		sr.SumSq = pairSq
		sr.RMS = Stat{N: sr.Values, SumSq: pairSq}.RMS()
	}
	sr.Series = make([]TimePoint, 0, len(st.series))
	for _, p := range st.series {
		sr.Series = append(sr.Series, TimePoint{T: p.t, Rank: p.rank, Peer: p.peer, MaxRel: p.v})
	}
	sort.Slice(sr.Series, func(i, j int) bool {
		a, b := sr.Series[i], sr.Series[j]
		if a.T != b.T {
			return a.T < b.T
		}
		if a.Rank != b.Rank {
			return a.Rank < b.Rank
		}
		if a.Peer != b.Peer {
			return a.Peer < b.Peer
		}
		return a.MaxRel < b.MaxRel
	})
	// Drift sums over the sorted series for the same reason.
	sr.Drift = driftOf(sr.Series)
	return sr
}

// driftOf estimates error drift over a stage's timeline: the mean worst
// relative error of the late half of the virtual-time span divided by
// the early half's mean. Splitting at the time midpoint (rather than the
// sample median) keeps the estimate independent of observation order,
// which the parallel engine does not preserve; callers pass the sorted
// series so the summation order is deterministic too. Returns 0 when
// either half is empty or the early mean is zero.
func driftOf(series []TimePoint) float64 {
	if len(series) < 2 {
		return 0
	}
	tMin, tMax := series[0].T, series[0].T
	for _, p := range series[1:] {
		if p.T < tMin {
			tMin = p.T
		}
		if p.T > tMax {
			tMax = p.T
		}
	}
	if tMax <= tMin {
		return 0
	}
	mid := tMin + (tMax-tMin)/2
	var earlySum, lateSum float64
	var earlyN, lateN int
	for _, p := range series {
		if p.T <= mid {
			earlySum += p.MaxRel
			earlyN++
		} else {
			lateSum += p.MaxRel
			lateN++
		}
	}
	if earlyN == 0 || lateN == 0 || earlySum == 0 {
		return 0
	}
	return (lateSum / float64(lateN)) / (earlySum / float64(earlyN))
}
