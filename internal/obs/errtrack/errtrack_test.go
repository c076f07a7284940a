package errtrack

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"repro/internal/obs"
)

func TestStatMergeAndRMS(t *testing.T) {
	var s Stat
	s.Merge(Stat{N: 2, MaxRel: 1e-4, MaxAbs: 2e-3, SumSq: 8e-6})
	s.Merge(Stat{N: 2, MaxRel: 3e-4, MaxAbs: 1e-3, SumSq: 0})
	if s.N != 4 || s.MaxRel != 3e-4 || s.MaxAbs != 2e-3 {
		t.Fatalf("merged stat = %+v", s)
	}
	if got, want := s.RMS(), math.Sqrt(8e-6/4); math.Abs(got-want) > 1e-18 {
		t.Fatalf("RMS = %v, want %v", got, want)
	}
	if (Stat{}).RMS() != 0 {
		t.Fatal("empty stat must have zero RMS")
	}
}

// TestCompose checks the ledger's bound composition on budgets alone.
func TestCompose(t *testing.T) {
	led := BuildLedger(CellReport{}, []StageBudget{{Bound: 0.1}, {Bound: 0.2}, {Bound: 0}})
	want := []float64{0.1, 1.1*1.2 - 1, 1.1*1.2 - 1}
	for i := range want {
		if got := led.Rows[i].BoundCum; math.Abs(got-want[i]) > 1e-15 {
			t.Fatalf("BoundCum[%d] = %v, want %v", i, got, want[i])
		}
	}
	if len(BuildLedger(CellReport{}, []StageBudget{}).Rows) != 0 {
		t.Fatal("an empty budget must compose to no rows")
	}
}

// ledgerOK reports whether every stage of a ledger stayed within its
// bound.
func ledgerOK(l Ledger) bool {
	for _, r := range l.Rows {
		if !r.OK {
			return false
		}
	}
	return true
}

// TestAdversarialStats feeds the tracker NaN/Inf/negative payloads: they
// must be rejected and counted, never merged, and the report must flag
// the stage as over budget regardless of its bound.
func TestAdversarialStats(t *testing.T) {
	trk := New()
	trk.StartCell("adv")
	good := Stat{N: 1, MaxRel: 1e-5, MaxAbs: 1e-5, SumSq: 1e-10}
	trk.Record(0, 0, "fwd0", 1, 1e-4, good)
	for _, bad := range []Stat{
		{N: 1, MaxRel: math.NaN()},
		{N: 1, MaxAbs: math.Inf(1)},
		{N: 1, SumSq: math.Inf(-1)},
		{N: 1, SumSq: -1},
		{N: -1},
	} {
		trk.Record(0, 0, "fwd0", 1, 1e-4, bad)
	}
	rep := trk.Snapshot()
	s := rep.Cells[0].Stages[0]
	if s.Poisoned != 5 {
		t.Fatalf("poisoned = %d, want 5", s.Poisoned)
	}
	if s.Values != 1 || s.WorstRel != 1e-5 {
		t.Fatalf("poison leaked into the aggregate: %+v", s)
	}
	over := rep.OverBudget()
	if len(over) != 1 || !strings.Contains(over[0], "poisoned") {
		t.Fatalf("OverBudget = %v, want one poisoned entry", over)
	}
	if !strings.Contains(rep.Verdict(), "FAIL") {
		t.Fatalf("verdict %q must FAIL on poison", rep.Verdict())
	}
}

// TestSubnormalEvent checks the observer path end to end with an event
// whose statistics came from a subnormal-heavy block: the attribution
// event round-trips into the same Stat it was built from.
func TestSubnormalEvent(t *testing.T) {
	st := Stat{N: 8, MaxRel: 0, MaxAbs: 4.9e-324, SumSq: 1e-300}
	ev := AttrEvent(1.5, "fwd1", 3, 6e-8, st)
	trk := New()
	trk.Observe(obs.Event{Kind: obs.EventRun, Label: "cell"})
	trk.Observe(ev)
	rep := trk.Snapshot()
	s := rep.Cells[0].Stages[0]
	if s.Label != "fwd1" || s.Values != 8 || s.MaxAbs != st.MaxAbs {
		t.Fatalf("stage = %+v", s)
	}
	// SumSq survives only through RMS²·N; demand agreement to rounding.
	if math.Abs(s.SumSq-st.SumSq) > 1e-12*st.SumSq {
		t.Fatalf("SumSq = %g, want ~%g", s.SumSq, st.SumSq)
	}
	if len(rep.OverBudget()) != 0 {
		t.Fatalf("subnormal block must stay in budget: %v", rep.OverBudget())
	}
}

func TestRetentionCaps(t *testing.T) {
	trk := &Tracker{MaxPairs: 2, MaxSeries: 3}
	trk.StartCell("caps")
	for i := 0; i < 5; i++ {
		trk.Record(float64(i), i, "fwd0", i+1, 1e-3, Stat{N: 1, MaxRel: 1e-4})
	}
	s := trk.Snapshot().Cells[0].Stages[0]
	if len(s.Pairs) != 2 || s.DroppedPairs != 3 {
		t.Fatalf("pairs = %d dropped = %d, want 2/3", len(s.Pairs), s.DroppedPairs)
	}
	if len(s.Series) != 3 || s.SeriesTotal != 5 {
		t.Fatalf("series = %d total = %d, want 3/5", len(s.Series), s.SeriesTotal)
	}
	// The stage aggregate must still count everything.
	if s.Values != 5 {
		t.Fatalf("values = %d, want 5", s.Values)
	}
}

func TestBuildLedgerComposition(t *testing.T) {
	trk := New()
	trk.StartCell("c")
	trk.Record(0, 0, "fwd0", 1, 1e-3, Stat{N: 4, MaxRel: 8e-4, SumSq: 3e-6})
	trk.Record(1, 0, "fwd1", 1, 1e-3, Stat{N: 4, MaxRel: 9e-4, SumSq: 1e-6})
	budgets := []StageBudget{
		{Label: "fwd0", Bound: 1e-3},
		{Label: "fwd1", Bound: 1e-3},
		{Label: "fwd2", Bound: 1e-3}, // budgeted but never measured
	}
	led := BuildLedger(trk.Snapshot().Cells[0], budgets)
	if len(led.Rows) != 3 {
		t.Fatalf("rows = %d, want 3", len(led.Rows))
	}
	if !ledgerOK(led) {
		t.Fatalf("ledger must be in budget: %+v", led.Rows)
	}
	// Cumulative columns compose multiplicatively.
	wantM := (1+8e-4)*(1+9e-4) - 1
	if math.Abs(led.Rows[1].MeasuredCum-wantM) > 1e-15 {
		t.Fatalf("MeasuredCum = %v, want %v", led.Rows[1].MeasuredCum, wantM)
	}
	wantB := math.Pow(1+1e-3, 3) - 1
	if math.Abs(led.Rows[2].BoundCum-wantB) > 1e-15 {
		t.Fatalf("BoundCum = %v, want %v", led.Rows[2].BoundCum, wantB)
	}
	// Share splits by squared error mass.
	if math.Abs(led.Rows[0].Share-0.75) > 1e-12 {
		t.Fatalf("share = %v, want 0.75", led.Rows[0].Share)
	}
	// A measured stage absent from the budget list must be appended, not
	// dropped.
	trk.Record(2, 0, "extra", 1, 0, Stat{N: 1, MaxRel: 1e-9})
	led = BuildLedger(trk.Snapshot().Cells[0], budgets)
	if led.Rows[len(led.Rows)-1].Label != "extra" {
		t.Fatalf("unlisted measured stage dropped: %+v", led.Rows)
	}
	if ledgerOK(led) {
		t.Fatal("extra stage measured error above its zero bound must fail")
	}
}

func TestDriftTimeMidpoint(t *testing.T) {
	trk := New()
	trk.StartCell("d")
	// Early half mean 1e-4, late half mean 2e-4 → drift 2. Record in
	// shuffled order to prove order-insensitivity.
	for _, p := range []struct{ t, v float64 }{
		{3, 2e-4}, {0, 1e-4}, {4, 2e-4}, {1, 1e-4},
	} {
		trk.Record(p.t, 0, "fwd0", 1, 1e-3, Stat{N: 1, MaxRel: p.v})
	}
	s := trk.Snapshot().Cells[0].Stages[0]
	if math.Abs(s.Drift-2) > 1e-12 {
		t.Fatalf("drift = %v, want 2", s.Drift)
	}
}

// TestReplayMatchesLive is the parity contract: a tracker fed live by an
// event log and a tracker fed the same events replayed from the JSONL
// sink must snapshot identically.
func TestReplayMatchesLive(t *testing.T) {
	log := obs.NewEventLog()
	live := New()
	log.Observe(live.Observe)
	var sink bytes.Buffer
	log.SetSink(&sink)

	log.StartRun("cell-a")
	for i := 0; i < 10; i++ {
		log.Emit(AttrEvent(float64(i), "fwd0", i%3, 1e-3, Stat{N: 2, MaxRel: 1e-4 * float64(i+1), MaxAbs: 1e-6, SumSq: 1e-9}))
	}
	log.StartRun("cell-b")
	log.Emit(AttrEvent(0.5, "fwd1", 0, 1e-3, Stat{N: 1, MaxRel: 2e-4}))
	log.EmitEnd()

	replayed, bad, err := Replay(&sink)
	if err != nil {
		t.Fatal(err)
	}
	if bad != 0 {
		t.Fatalf("bad lines = %d", bad)
	}
	a, b := live.Snapshot(), replayed.Snapshot()
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("live and replayed snapshots differ:\nlive   %+v\nreplay %+v", a, b)
	}
	if a.Verdict() != b.Verdict() {
		t.Fatalf("verdicts differ: %q vs %q", a.Verdict(), b.Verdict())
	}
}

func TestReplayCountsMalformed(t *testing.T) {
	in := strings.NewReader(`{"kind":"run","label":"x"}` + "\n" +
		"not json\n" +
		`{"kind":"error_attribution","label":"fwd0","peer":1,"value":1e-5,"bound":1e-4,"n":1}` + "\n")
	trk, bad, err := Replay(in)
	if err != nil {
		t.Fatal(err)
	}
	if bad != 1 {
		t.Fatalf("bad = %d, want 1", bad)
	}
	rep := trk.Snapshot()
	if len(rep.Cells) != 1 || rep.Cells[0].Stages[0].Values != 1 {
		t.Fatalf("replay lost the valid events: %+v", rep)
	}
}

func TestReportFileRoundTrip(t *testing.T) {
	trk := New()
	trk.StartCell("rt")
	trk.Record(0, 1, "fwd0", 2, 1e-3, Stat{N: 3, MaxRel: 5e-4, MaxAbs: 1e-6, SumSq: 2e-12})
	rep := trk.Snapshot()
	path := filepath.Join(t.TempDir(), "errtrack.json")
	if err := rep.WriteFile(path); err != nil {
		t.Fatal(err)
	}
	got, err := LoadReport(path)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(rep, got) {
		t.Fatalf("round trip changed the report:\nwrote %+v\nread  %+v", rep, got)
	}

	// Schema drift must be rejected.
	bad := rep
	bad.Schema = ReportSchema + 1
	b, _ := json.Marshal(bad)
	badPath := filepath.Join(t.TempDir(), "bad.json")
	if err := os.WriteFile(badPath, b, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadReport(badPath); err == nil {
		t.Fatal("wrong schema must not load")
	}
}

func TestNilTrackerInert(t *testing.T) {
	var trk *Tracker
	trk.StartCell("x")
	trk.Record(0, 0, "fwd0", 1, 1e-3, Stat{N: 1})
	trk.Observe(obs.Event{Kind: obs.EventErrAttr})
	rep := trk.Snapshot()
	if len(rep.Cells) != 0 || rep.Verdict() == "" {
		t.Fatalf("nil tracker not inert: %+v", rep)
	}
}
