// Package slo evaluates declarative service-level objectives against
// the telemetry event stream. Objectives watch sliding windows of
// virtual time (the simulator's timeline, so evaluation is deterministic
// and free of wall-clock jitter): ratio objectives track the fraction of
// bad observations against an error budget (p99-style latency targets,
// achieved compression error vs. the configured bound), rate objectives
// track event counts against a ceiling (repairs, fallbacks, transport
// faults). Each objective's burn rate is budget consumption per unit
// budget — above 1.0 the objective is out of budget and a breach event
// is emitted into the log (kind "slo_breach").
package slo

import (
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"strings"
	"sync"

	"repro/internal/obs"
)

// Objective kinds. Ratio kinds classify matching observations as
// good/bad; rate kinds count matching events outright.
const (
	KindLatency  = "latency"  // exchange duration events; bad when Value > Target
	KindError    = "error"    // achieved-error events; bad when Value > Target (or BoundMultiple·Bound)
	KindRepair   = "repair"   // healer repair rounds
	KindFallback = "fallback" // peers escalated to lossless fallback
	KindFault    = "fault"    // injected/detected transport faults
	// KindBudgetShare caps one stage's share of the accumulated squared
	// compression error: it consumes error_attribution events, sums each
	// block's squared error (rms²·n), and burns at share/Target where
	// share is the Label stage's fraction of the window total. "reshape 2
	// consumes ≤40% of the error budget" is {label: "fwd2", target: 0.4}.
	KindBudgetShare = "budget_share"
	// KindRecovery counts crash-recovery transitions (event kind
	// "recovery"); restrict with Label to a single transition ("rollback",
	// "give_up", ...). "at most 2 rollbacks per run" is {kind: "recovery",
	// label: "rollback", max_count: 2}.
	KindRecovery = "recovery"
	// KindDrift watches achieved error drifting over epochs: it consumes
	// per-epoch achieved-error events and burns at ratio/Target, where
	// ratio is the late half of the window's mean error over the early
	// half's (split at the virtual-time midpoint, so evaluation does not
	// depend on observation order). target 2 tolerates a 2× drift.
	KindDrift = "drift"
	// KindShrink counts elastic-shrink arcs (recovery events labeled
	// "shrink_verdict" — permanent rank loss absorbed by re-decomposing
	// onto the survivors); restrict with Label to another shrink
	// transition ("shrink_agree", "replan", "migrate"). "never run
	// degraded" is {kind: "shrink", max_count: 0}.
	KindShrink = "shrink"
)

// Objective is one declarative SLO.
type Objective struct {
	// Name identifies the objective in breach events and the summary.
	Name string `json:"name"`
	// Kind selects the event stream and semantics (Kind* constants).
	Kind string `json:"kind"`
	// Label restricts matching to events with this label (e.g. a reshape
	// "fwd0"); empty matches every label.
	Label string `json:"label,omitempty"`
	// Target is the ratio kinds' threshold: a latency in seconds, or an
	// absolute error. For KindError a zero Target defers to
	// BoundMultiple.
	Target float64 `json:"target,omitempty"`
	// BoundMultiple expresses an error target relative to the bound the
	// event carries: bad when Value > BoundMultiple·Bound. The paper's
	// contract is Value ≤ Bound, so 1.0 objectifies the bound itself.
	BoundMultiple float64 `json:"bound_multiple,omitempty"`
	// WindowS is the sliding window extent in virtual seconds (0 means
	// the whole run).
	WindowS float64 `json:"window_s,omitempty"`
	// Budget is the ratio kinds' error budget: the tolerated bad
	// fraction within the window (0.01 ≈ "p99 under target"). A zero
	// budget tolerates no bad observations.
	Budget float64 `json:"budget,omitempty"`
	// MaxCount is the rate kinds' ceiling: matching events tolerated
	// within the window. Zero tolerates none.
	MaxCount int64 `json:"max_count,omitempty"`
	// MinSamples suppresses ratio evaluation until the window holds this
	// many observations (avoids declaring a breach off one sample).
	MinSamples int64 `json:"min_samples,omitempty"`
}

func (o *Objective) ratio() bool { return o.Kind == KindLatency || o.Kind == KindError }

// eventKind maps the objective kind onto the event kind it consumes.
func (o *Objective) eventKind() string {
	switch o.Kind {
	case KindLatency:
		return obs.EventExchange
	case KindError:
		return obs.EventError
	case KindRepair:
		return obs.EventRepair
	case KindFallback:
		return obs.EventFallback
	case KindFault:
		return obs.EventFault
	case KindRecovery, KindShrink:
		return obs.EventRecovery
	case KindBudgetShare:
		return obs.EventErrAttr
	case KindDrift:
		return obs.EventError
	}
	return ""
}

// windowed reports whether the kind evaluates window statistics (and so
// honors MinSamples) rather than counting events outright.
func (o *Objective) windowed() bool {
	return o.ratio() || o.Kind == KindBudgetShare || o.Kind == KindDrift
}

// Config is a set of objectives, loadable from JSON.
type Config struct {
	Objectives []Objective `json:"objectives"`
}

// Validate checks the config for unusable objectives.
func (c *Config) Validate() error {
	if len(c.Objectives) == 0 {
		return fmt.Errorf("slo: config has no objectives")
	}
	seen := map[string]bool{}
	for i := range c.Objectives {
		o := &c.Objectives[i]
		if o.Name == "" {
			return fmt.Errorf("slo: objective %d has no name", i)
		}
		if seen[o.Name] {
			return fmt.Errorf("slo: duplicate objective name %q", o.Name)
		}
		seen[o.Name] = true
		if o.eventKind() == "" {
			return fmt.Errorf("slo: objective %q has unknown kind %q", o.Name, o.Kind)
		}
		if o.Kind == KindLatency && o.Target <= 0 {
			return fmt.Errorf("slo: latency objective %q needs a positive target", o.Name)
		}
		if o.Kind == KindError && o.Target <= 0 && o.BoundMultiple <= 0 {
			return fmt.Errorf("slo: error objective %q needs target or bound_multiple", o.Name)
		}
		if o.Kind == KindBudgetShare {
			if o.Label == "" {
				return fmt.Errorf("slo: budget_share objective %q needs a label (the stage whose share is capped)", o.Name)
			}
			if o.Target <= 0 || o.Target > 1 {
				return fmt.Errorf("slo: budget_share objective %q needs a target share in (0, 1]", o.Name)
			}
		}
		if o.Kind == KindDrift && o.Target <= 0 {
			return fmt.Errorf("slo: drift objective %q needs a positive target ratio", o.Name)
		}
		if o.WindowS < 0 || o.Budget < 0 || o.MaxCount < 0 || o.MinSamples < 0 {
			return fmt.Errorf("slo: objective %q has a negative parameter", o.Name)
		}
	}
	return nil
}

// LoadConfig reads and validates a JSON objectives file.
func LoadConfig(path string) (*Config, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var c Config
	dec := json.NewDecoder(strings.NewReader(string(b)))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&c); err != nil {
		return nil, fmt.Errorf("slo: parsing %s: %w", path, err)
	}
	if err := c.Validate(); err != nil {
		return nil, fmt.Errorf("%w (in %s)", err, path)
	}
	return &c, nil
}

// sample is one windowed observation: its virtual time; for ratio
// objectives whether it violated the target; for budget_share/drift the
// observed value (squared error, resp. achieved error) and whether the
// event carried the objective's label.
type sample struct {
	t     float64
	bad   bool
	v     float64
	match bool
}

// tracker is one objective's evaluation state.
type tracker struct {
	obj    Objective
	window []sample // sorted by arrival; pruned against the sliding window
	// cumulative (never reset, survive run markers):
	cumSamples, cumBad int64
	breaches           int64
	worstBurn          float64
	breached           bool // currently out of budget
}

// Status is one objective's externally visible state.
type Status struct {
	Name string `json:"name"`
	Kind string `json:"kind"`
	// Breached reports whether the objective is currently out of budget;
	// Breaches counts out-of-budget transitions over the whole session.
	Breached bool  `json:"breached"`
	Breaches int64 `json:"breaches"`
	// Burn is the current burn rate (budget consumed per unit budget;
	// >1 means out of budget), WorstBurn the session-wide peak.
	Burn      float64 `json:"burn"`
	WorstBurn float64 `json:"worst_burn"`
	// Samples/Bad describe the current window; CumSamples/CumBad the
	// whole session.
	Samples    int64 `json:"samples"`
	Bad        int64 `json:"bad"`
	CumSamples int64 `json:"cum_samples"`
	CumBad     int64 `json:"cum_bad"`
}

// Engine evaluates a Config against the event stream. Register it on
// the event log with log.Observe(engine.ObserveEvent); it emits breach
// events back into the same log (and ignores them on the way in, so no
// feedback loop).
type Engine struct {
	mu       sync.Mutex
	trackers []*tracker
	log      *obs.EventLog
}

// New creates an engine for the config, emitting breach events into
// log (which may be nil to only track state).
func New(c *Config, log *obs.EventLog) *Engine {
	e := &Engine{log: log}
	for _, o := range c.Objectives {
		e.trackers = append(e.trackers, &tracker{obj: o})
	}
	return e
}

// ObserveEvent feeds one telemetry event into every matching objective.
// Run markers (kind "run") reset the sliding windows, because virtual
// time restarts at zero for each run/cell; cumulative counts persist.
// Safe for concurrent use; breach events are emitted outside the lock.
func (e *Engine) ObserveEvent(ev obs.Event) {
	if e == nil {
		return
	}
	var breaches []obs.Event
	e.mu.Lock()
	if ev.Kind == obs.EventRun {
		for _, tr := range e.trackers {
			tr.window = tr.window[:0]
			tr.breached = false
		}
		e.mu.Unlock()
		return
	}
	for _, tr := range e.trackers {
		if b, ok := tr.observe(ev); ok {
			breaches = append(breaches, b)
		}
	}
	e.mu.Unlock()
	for _, b := range breaches {
		e.log.Emit(b)
	}
}

// observe updates one tracker; it returns a breach event when the
// objective transitions out of budget. Caller holds the engine lock.
func (tr *tracker) observe(ev obs.Event) (obs.Event, bool) {
	o := &tr.obj
	if ev.Kind != o.eventKind() || ev.Kind == obs.EventBreach {
		return obs.Event{}, false
	}
	// budget_share needs the whole attribution stream in its window (the
	// share's denominator), so its label selects rather than filters.
	if o.Kind != KindBudgetShare && o.Label != "" && o.Label != ev.Label {
		return obs.Event{}, false
	}
	// shrink shares the recovery event stream; an unrestricted objective
	// counts arcs (one shrink_verdict each), not every shrink transition.
	if o.Kind == KindShrink && o.Label == "" && ev.Label != "shrink_verdict" {
		return obs.Event{}, false
	}
	s := sample{t: ev.T}
	switch o.Kind {
	case KindBudgetShare:
		s.v = ev.RMS * ev.RMS * float64(ev.N) // the block's squared-error sum
		s.match = ev.Label == o.Label
		s.bad = s.match
	case KindDrift:
		s.v = ev.Value
	default:
		if o.ratio() {
			target := o.Target
			if o.Kind == KindError && o.BoundMultiple > 0 && ev.Bound > 0 {
				target = o.BoundMultiple * ev.Bound
			}
			s.bad = ev.Value > target
		}
	}
	bad := s.bad
	tr.window = append(tr.window, s)
	tr.cumSamples++
	if bad {
		tr.cumBad++
	}
	tr.prune(ev.T)
	burn, n, nbad := tr.burn()
	if burn > tr.worstBurn {
		tr.worstBurn = burn
	}
	out := burn > 1
	if o.windowed() && n < o.MinSamples {
		out = false
	}
	if out && !tr.breached {
		tr.breached = true
		tr.breaches++
		return obs.Event{
			T: ev.T, Rank: -1, Kind: obs.EventBreach, Label: o.Name, Peer: -1,
			Value: burn,
			Msg:   fmt.Sprintf("%s: %d/%d bad in window, burn %.2f", o.Kind, nbad, n, burn),
		}, true
	}
	if !out {
		tr.breached = false
	}
	return obs.Event{}, false
}

// prune drops samples older than the sliding window ending at now.
func (tr *tracker) prune(now float64) {
	w := tr.obj.WindowS
	if w <= 0 {
		return
	}
	cut := 0
	for cut < len(tr.window) && tr.window[cut].t < now-w {
		cut++
	}
	if cut > 0 {
		tr.window = append(tr.window[:0], tr.window[cut:]...)
	}
}

// burn computes the current burn rate plus the window's sample and bad
// counts. For ratio objectives it is badFraction/Budget (with a zero
// budget, any bad observation burns at the bad count itself); for rate
// objectives it is count/MaxCount (with a zero ceiling, the count).
func (tr *tracker) burn() (burn float64, n, nbad int64) {
	n = int64(len(tr.window))
	for _, s := range tr.window {
		if s.bad {
			nbad++
		}
	}
	o := &tr.obj
	switch {
	case o.Kind == KindBudgetShare:
		var num, den float64
		for _, s := range tr.window {
			den += s.v
			if s.match {
				num += s.v
			}
		}
		if den == 0 {
			return 0, n, nbad
		}
		return (num / den) / o.Target, n, nbad
	case o.Kind == KindDrift:
		return driftRatio(tr.window) / o.Target, n, nbad
	case o.ratio():
		if n == 0 {
			return 0, 0, 0
		}
		frac := float64(nbad) / float64(n)
		if o.Budget > 0 {
			return frac / o.Budget, n, nbad
		}
		return float64(nbad), n, nbad
	}
	if o.MaxCount > 0 {
		return float64(n) / float64(o.MaxCount), n, nbad
	}
	return float64(n), n, nbad
}

// driftRatio is the window's late-half mean value over its early-half
// mean, split at the virtual-time midpoint so the estimate is a pure
// function of the sample multiset (the parallel engine does not preserve
// observation order). 0 when either half is empty or the early mean is 0.
func driftRatio(window []sample) float64 {
	if len(window) < 2 {
		return 0
	}
	tMin, tMax := window[0].t, window[0].t
	for _, s := range window[1:] {
		if s.t < tMin {
			tMin = s.t
		}
		if s.t > tMax {
			tMax = s.t
		}
	}
	if tMax <= tMin {
		return 0
	}
	mid := tMin + (tMax-tMin)/2
	var earlySum, lateSum float64
	var earlyN, lateN int
	for _, s := range window {
		if s.t <= mid {
			earlySum += s.v
			earlyN++
		} else {
			lateSum += s.v
			lateN++
		}
	}
	if earlyN == 0 || lateN == 0 || earlySum == 0 {
		return 0
	}
	return (lateSum / float64(lateN)) / (earlySum / float64(earlyN))
}

// Status returns every objective's current state, in config order.
func (e *Engine) Status() []Status {
	if e == nil {
		return nil
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	out := make([]Status, len(e.trackers))
	for i, tr := range e.trackers {
		burn, n, nbad := tr.burn()
		out[i] = Status{
			Name: tr.obj.Name, Kind: tr.obj.Kind,
			Breached: tr.breached, Breaches: tr.breaches,
			Burn: burn, WorstBurn: tr.worstBurn,
			Samples: n, Bad: nbad,
			CumSamples: tr.cumSamples, CumBad: tr.cumBad,
		}
	}
	return out
}

// TotalBreaches sums breach transitions over all objectives.
func (e *Engine) TotalBreaches() int64 {
	var total int64
	for _, s := range e.Status() {
		total += s.Breaches
	}
	return total
}

// Summary renders the one-line end-of-run summary the drivers print:
// overall pass/fail, the worst burn rate, and which objectives breached.
func (e *Engine) Summary() string {
	if e == nil {
		return "slo: no objectives"
	}
	st := e.Status()
	var worst float64
	var worstName string
	var failed []string
	var total int64
	for _, s := range st {
		if s.WorstBurn > worst {
			worst, worstName = s.WorstBurn, s.Name
		}
		if s.Breaches > 0 {
			failed = append(failed, fmt.Sprintf("%s×%d", s.Name, s.Breaches))
		}
		total += s.Breaches
	}
	if total == 0 {
		return fmt.Sprintf("slo PASS (%d objectives, worst burn %.2f %s)", len(st), worst, worstName)
	}
	sort.Strings(failed)
	return fmt.Sprintf("slo FAIL (%d breaches: %s; worst burn %.2f %s)", total, strings.Join(failed, " "), worst, worstName)
}
