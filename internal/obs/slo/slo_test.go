package slo

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/obs"
)

func engine(t *testing.T, objs ...Objective) (*Engine, *obs.EventLog) {
	t.Helper()
	log := obs.NewEventLog()
	c := &Config{Objectives: objs}
	if err := c.Validate(); err != nil {
		t.Fatal(err)
	}
	e := New(c, log)
	log.Observe(e.ObserveEvent)
	return e, log
}

func TestLatencyObjectiveBreaches(t *testing.T) {
	e, log := engine(t, Objective{
		Name: "p99", Kind: KindLatency, Target: 1e-3, WindowS: 1, Budget: 0.25, MinSamples: 4,
	})
	var breach *obs.Event
	log.Observe(func(ev obs.Event) {
		if ev.Kind == obs.EventBreach {
			breach = &ev
		}
	})
	// Three fast exchanges: under MinSamples, no verdict yet.
	for i := 0; i < 3; i++ {
		log.Emit(obs.Event{T: float64(i) * 0.01, Kind: obs.EventExchange, Value: 1e-4})
	}
	if st := e.Status()[0]; st.Breached || st.Breaches != 0 {
		t.Fatalf("breached below MinSamples: %+v", st)
	}
	// A slow one: 1/4 bad = budget exactly (burn 1.0, not >1) — still in.
	log.Emit(obs.Event{T: 0.03, Kind: obs.EventExchange, Value: 5e-3})
	if st := e.Status()[0]; st.Breached {
		t.Fatalf("breached at burn exactly 1: %+v", st)
	}
	// Another slow one: 2/5 bad, burn 1.6 — breach.
	log.Emit(obs.Event{T: 0.04, Kind: obs.EventExchange, Value: 5e-3})
	st := e.Status()[0]
	if !st.Breached || st.Breaches != 1 {
		t.Fatalf("no breach at burn > 1: %+v", st)
	}
	if e.TotalBreaches() != 1 {
		t.Fatalf("TotalBreaches = %d", e.TotalBreaches())
	}
	// The breach event itself must be in the log.
	if breach == nil || breach.Label != "p99" || breach.Value <= 1 {
		t.Fatalf("breach event missing or wrong: %+v", breach)
	}
	if !strings.Contains(e.Summary(), "FAIL") {
		t.Fatalf("Summary = %q, want FAIL", e.Summary())
	}
}

func TestErrorObjectiveBoundMultiple(t *testing.T) {
	e, log := engine(t, Objective{
		Name: "err", Kind: KindError, BoundMultiple: 1.0,
	})
	// Within bound: fine.
	log.Emit(obs.Event{T: 1, Kind: obs.EventError, Label: "fwd0", Value: 5e-8, Bound: 1e-7})
	if st := e.Status()[0]; st.Bad != 0 {
		t.Fatalf("in-bound observation marked bad: %+v", st)
	}
	// Beyond bound: one bad with zero budget burns at the bad count; a
	// single bad sample is burn 1 (not >1), the second breaches.
	log.Emit(obs.Event{T: 2, Kind: obs.EventError, Label: "fwd0", Value: 2e-7, Bound: 1e-7})
	log.Emit(obs.Event{T: 3, Kind: obs.EventError, Label: "fwd0", Value: 3e-7, Bound: 1e-7})
	st := e.Status()[0]
	if st.Bad != 2 || st.Breaches != 1 {
		t.Fatalf("bound-multiple classification wrong: %+v", st)
	}
}

func TestRateObjectiveAndLabelFilter(t *testing.T) {
	e, log := engine(t,
		Objective{Name: "repairs", Kind: KindRepair, MaxCount: 2, WindowS: 1},
		Objective{Name: "stalls-only", Kind: KindFault, Label: "stall", MaxCount: 0},
	)
	log.Emit(obs.Event{T: 0.1, Kind: obs.EventRepair})
	log.Emit(obs.Event{T: 0.2, Kind: obs.EventRepair})
	if st := e.Status()[0]; st.Breached {
		t.Fatalf("breached at ceiling: %+v", st)
	}
	log.Emit(obs.Event{T: 0.3, Kind: obs.EventRepair})
	if st := e.Status()[0]; !st.Breached || st.Breaches != 1 {
		t.Fatalf("rate breach missing: %+v", st)
	}
	// The window slides on virtual time: 1s later the burn decays.
	log.Emit(obs.Event{T: 1.5, Kind: obs.EventRepair})
	if st := e.Status()[0]; st.Samples != 1 || st.Breached {
		t.Fatalf("window did not slide: %+v", st)
	}
	// Label filter: spikes don't count toward the stall objective.
	log.Emit(obs.Event{T: 0.4, Kind: obs.EventFault, Label: "spike"})
	if st := e.Status()[1]; st.Samples != 0 {
		t.Fatalf("label filter leaked: %+v", st)
	}
	log.Emit(obs.Event{T: 0.5, Kind: obs.EventFault, Label: "stall"})
	log.Emit(obs.Event{T: 0.6, Kind: obs.EventFault, Label: "stall"})
	if st := e.Status()[1]; st.Samples != 2 || !st.Breached {
		t.Fatalf("zero-ceiling rate objective wrong: %+v", st)
	}
}

func TestRunMarkerResetsWindows(t *testing.T) {
	e, log := engine(t, Objective{Name: "r", Kind: KindRepair, MaxCount: 1})
	log.StartRun("cell-a")
	log.Emit(obs.Event{T: 0.1, Kind: obs.EventRepair})
	log.Emit(obs.Event{T: 0.2, Kind: obs.EventRepair})
	if st := e.Status()[0]; !st.Breached || st.Breaches != 1 {
		t.Fatalf("no breach in cell-a: %+v", st)
	}
	// New cell: virtual time restarts; the window and breached flag must
	// reset, cumulative counts must persist.
	log.StartRun("cell-b")
	st := e.Status()[0]
	if st.Samples != 0 || st.Breached {
		t.Fatalf("run marker did not reset window: %+v", st)
	}
	if st.Breaches != 1 || st.CumSamples != 2 {
		t.Fatalf("cumulative state lost on run marker: %+v", st)
	}
	// A fresh overrun in cell-b is a new transition.
	log.Emit(obs.Event{T: 0.05, Kind: obs.EventRepair})
	log.Emit(obs.Event{T: 0.06, Kind: obs.EventRepair})
	if st := e.Status()[0]; st.Breaches != 2 {
		t.Fatalf("second cell breach not counted: %+v", st)
	}
}

func TestBreachEventsDoNotFeedBack(t *testing.T) {
	e, log := engine(t, Objective{Name: "f", Kind: KindFault, MaxCount: 0})
	log.Emit(obs.Event{T: 0.1, Kind: obs.EventFault, Label: "stall"})
	log.Emit(obs.Event{T: 0.2, Kind: obs.EventFault, Label: "stall"})
	// Two faults → breach; the breach event must not count as a fault
	// (or as anything) and re-trigger.
	if st := e.Status()[0]; st.Samples != 2 || st.Breaches != 1 {
		t.Fatalf("feedback loop or miscount: %+v", st)
	}
	if got := log.Counts()[obs.EventBreach]; got != 1 {
		t.Fatalf("breach events in log = %d, want 1", got)
	}
}

func TestLoadConfigValidates(t *testing.T) {
	dir := t.TempDir()
	write := func(name, body string) string {
		p := filepath.Join(dir, name)
		if err := os.WriteFile(p, []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
		return p
	}
	good := write("good.json", `{"objectives":[{"name":"a","kind":"repair","max_count":1}]}`)
	if _, err := LoadConfig(good); err != nil {
		t.Fatalf("valid config rejected: %v", err)
	}
	for name, body := range map[string]string{
		"empty.json":    `{"objectives":[]}`,
		"dup.json":      `{"objectives":[{"name":"a","kind":"repair"},{"name":"a","kind":"fault"}]}`,
		"badkind.json":  `{"objectives":[{"name":"a","kind":"nope"}]}`,
		"notarget.json": `{"objectives":[{"name":"a","kind":"latency"}]}`,
		"noerrtgt.json": `{"objectives":[{"name":"a","kind":"error"}]}`,
		"negative.json": `{"objectives":[{"name":"a","kind":"repair","window_s":-1}]}`,
		"unknown.json":  `{"objectives":[{"name":"a","kind":"repair","typo_field":1}]}`,
		"noname.json":   `{"objectives":[{"kind":"repair"}]}`,
		"notjson.json":  `objectives:`,
	} {
		if _, err := LoadConfig(write(name, body)); err == nil {
			t.Errorf("%s: invalid config accepted", name)
		}
	}
	// The shipped example config must stay valid.
	if _, err := LoadConfig("../../../docs/slo.example.json"); err != nil {
		t.Fatalf("docs/slo.example.json invalid: %v", err)
	}
}

// TestBudgetShareObjective pins the error-budget SLO: the objective caps
// one stage's share of the squared-error mass accumulated across the
// whole attribution stream in its window, so its label selects the
// numerator rather than filtering the stream.
func TestBudgetShareObjective(t *testing.T) {
	e, log := engine(t, Objective{
		Name: "fwd1-share", Kind: KindBudgetShare, Label: "fwd1", Target: 0.5, MinSamples: 2,
	})
	attr := func(ts float64, label string, rms float64) obs.Event {
		return obs.Event{T: ts, Kind: obs.EventErrAttr, Label: label, Peer: 0, RMS: rms, N: 1}
	}
	// One matching event alone is 100% of the mass (burn 2), but below
	// MinSamples no verdict is allowed yet.
	log.Emit(attr(0, "fwd1", 1))
	if st := e.Status()[0]; st.Breached || st.Breaches != 0 {
		t.Fatalf("breached below MinSamples: %+v", st)
	}
	// A heavy fwd0 block dilutes the share: 1/(1+9) = 0.1, burn 0.2.
	log.Emit(attr(1, "fwd0", 3))
	if st := e.Status()[0]; st.Breached {
		t.Fatalf("breached at share 0.1: %+v", st)
	}
	// More fwd1 mass: (1+9)/(1+9+9) ≈ 0.53 > 0.5 — breach.
	log.Emit(attr(2, "fwd1", 3))
	st := e.Status()[0]
	if !st.Breached || st.Breaches != 1 {
		t.Fatalf("no breach at share > target: %+v", st)
	}
	if !strings.Contains(e.Summary(), "FAIL") {
		t.Fatalf("Summary = %q, want FAIL", e.Summary())
	}
}

// TestDriftObjective pins the drift SLO: the late-half mean of achieved
// error over the early-half mean, split at the window's virtual-time
// midpoint, breaching when the ratio exceeds the target.
func TestDriftObjective(t *testing.T) {
	e, log := engine(t, Objective{
		Name: "err-drift", Kind: KindDrift, Target: 2, MinSamples: 4,
	})
	errEv := func(ts, v float64) obs.Event {
		return obs.Event{T: ts, Kind: obs.EventError, Label: "fwd0", Value: v, Bound: 1e-3}
	}
	// Early plateau at 1e-4, then a 3× late half: drift 3, burn 1.5 —
	// but not before MinSamples observations are in.
	log.Emit(errEv(0, 1e-4))
	log.Emit(errEv(1, 1e-4))
	log.Emit(errEv(9, 3e-4))
	if st := e.Status()[0]; st.Breached {
		t.Fatalf("breached below MinSamples: %+v", st)
	}
	log.Emit(errEv(10, 3e-4))
	st := e.Status()[0]
	if !st.Breached || st.Breaches != 1 {
		t.Fatalf("no breach at drift 3 > target 2: %+v", st)
	}

	// A flat series must not breach: drift 1, burn 0.5.
	e2, log2 := engine(t, Objective{
		Name: "err-drift", Kind: KindDrift, Target: 2, MinSamples: 4,
	})
	for i := 0; i < 6; i++ {
		log2.Emit(errEv(float64(i), 1e-4))
	}
	if st := e2.Status()[0]; st.Breached || st.Breaches != 0 {
		t.Fatalf("flat series breached: %+v", st)
	}
}

// TestBudgetShareDriftValidation pins the config-time rejections for the
// two errtrack-fed objective kinds.
func TestBudgetShareDriftValidation(t *testing.T) {
	for name, obj := range map[string]Objective{
		"share-no-label":   {Name: "s", Kind: KindBudgetShare, Target: 0.5},
		"share-bad-target": {Name: "s", Kind: KindBudgetShare, Label: "fwd0", Target: 1.5},
		"drift-no-target":  {Name: "d", Kind: KindDrift},
	} {
		c := &Config{Objectives: []Objective{obj}}
		if err := c.Validate(); err == nil {
			t.Errorf("%s: invalid objective accepted", name)
		}
	}
}

func TestNilEngine(t *testing.T) {
	var e *Engine
	e.ObserveEvent(obs.Event{Kind: obs.EventFault})
	if e.Status() != nil || e.TotalBreaches() != 0 {
		t.Fatal("nil engine must be inert")
	}
	if !strings.Contains(e.Summary(), "no objectives") {
		t.Fatalf("nil Summary = %q", e.Summary())
	}
}
