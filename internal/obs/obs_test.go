package obs

import (
	"strings"
	"sync"
	"testing"
)

func TestSpanNesting(t *testing.T) {
	rec := New(Options{Trace: true})
	rk := rec.Rank(0)
	rk.Begin(TrackHost, PhaseExchange, 1.0)
	rk.Begin(TrackHost, PhaseFence, 2.0)
	rk.End(3.0, 10) // closes fence
	rk.End(4.0, 20) // closes exchange
	spans := rec.RankSpans(0)
	if len(spans) != 2 {
		t.Fatalf("got %d spans, want 2", len(spans))
	}
	// Spans appear in Begin order; the outer span closes after the inner.
	if spans[0].Phase != PhaseExchange || spans[0].Begin != 1.0 || spans[0].End != 4.0 || spans[0].Bytes != 20 {
		t.Errorf("outer span = %+v", spans[0])
	}
	if spans[1].Phase != PhaseFence || spans[1].Begin != 2.0 || spans[1].End != 3.0 || spans[1].Bytes != 10 {
		t.Errorf("inner span = %+v", spans[1])
	}
	if spans[1].Begin < spans[0].Begin || spans[1].End > spans[0].End {
		t.Errorf("inner span not nested in outer: %+v in %+v", spans[1], spans[0])
	}
}

func TestUnmatchedEndIgnored(t *testing.T) {
	rec := New(Options{Trace: true})
	rk := rec.Rank(0)
	rk.End(1.0, 0) // no open span
	if n := len(rec.RankSpans(0)); n != 0 {
		t.Fatalf("unmatched End produced %d spans", n)
	}
}

// TestConcurrentRanks drives many rank handles from separate goroutines
// (as netsim's per-rank goroutines do) and checks that every rank's
// spans survive intact and ordered.
func TestConcurrentRanks(t *testing.T) {
	const ranks, spansPer = 16, 200
	rec := New(Options{Trace: true, Metrics: true})
	var wg sync.WaitGroup
	for id := 0; id < ranks; id++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			rk := rec.Rank(id)
			for i := 0; i < spansPer; i++ {
				t0 := float64(i)
				rk.Begin(TrackHost, PhaseExchange, t0)
				rk.Span(TrackGPU, PhaseCompress, t0, t0+0.25, 0)
				rk.End(t0+0.5, int64(i))
				rk.Add("test/count", 1)
			}
		}(id)
	}
	wg.Wait()
	ids := rec.RankIDs()
	if len(ids) != ranks {
		t.Fatalf("got %d ranks, want %d", len(ids), ranks)
	}
	for _, id := range ids {
		spans := rec.RankSpans(id)
		if len(spans) != 2*spansPer {
			t.Fatalf("rank %d: got %d spans, want %d", id, len(spans), 2*spansPer)
		}
		for i := 1; i < len(spans); i++ {
			if spans[i].Begin < spans[i-1].Begin {
				t.Fatalf("rank %d: spans out of begin order at %d", id, i)
			}
		}
	}
	if got := rec.Metrics().Counter("test/count"); got != ranks*spansPer {
		t.Errorf("counter = %d, want %d", got, ranks*spansPer)
	}
}

// TestDisabledZeroAlloc is the hot-path contract: with observability off
// (nil recorder, or tracing disabled) the instrumentation allocates
// nothing.
func TestDisabledZeroAlloc(t *testing.T) {
	var nilRec *Recorder
	rk := nilRec.Rank(3)
	if rk != nil {
		t.Fatal("nil recorder returned a non-nil rank handle")
	}
	if n := testing.AllocsPerRun(100, func() {
		rk.Begin(TrackHost, PhasePack, 1.0)
		rk.End(2.0, 64)
		rk.Span(TrackGPU, PhaseCompress, 1.0, 2.0, 0)
		rk.Add("compress/fwd0/raw_bytes", 64)
		rk.Set("compress/fwd0/error_bound", 1e-8)
		rk.Observe("exchange/flush_stall_s", 0.5)
		nilRec.Wire(WireEvent{Bytes: 64})
	}); n != 0 {
		t.Errorf("nil recorder: %v allocs/op, want 0", n)
	}

	off := New(Options{}) // non-nil but nothing enabled
	rkOff := off.Rank(0)
	if n := testing.AllocsPerRun(100, func() {
		rkOff.Begin(TrackHost, PhasePack, 1.0)
		rkOff.End(2.0, 64)
		rkOff.Span(TrackGPU, PhaseCompress, 1.0, 2.0, 0)
		rkOff.Add("compress/fwd0/raw_bytes", 64)
		off.Wire(WireEvent{Bytes: 64})
	}); n != 0 {
		t.Errorf("disabled recorder: %v allocs/op, want 0", n)
	}
}

func TestSpanCapDrops(t *testing.T) {
	rec := New(Options{Trace: true, SpanCap: 4})
	rk := rec.Rank(0)
	for i := 0; i < 10; i++ {
		rk.Begin(TrackHost, PhasePack, float64(i))
		rk.End(float64(i)+0.5, 0)
	}
	if got := len(rec.RankSpans(0)); got != 4 {
		t.Errorf("kept %d spans, want 4", got)
	}
	if got := rec.DroppedSpans(); got != 6 {
		t.Errorf("dropped %d spans, want 6", got)
	}
	// Nesting must survive a dropped Begin: the matching End is swallowed
	// and the still-open outer span closes correctly afterwards.
	rec2 := New(Options{Trace: true, SpanCap: 1})
	rk2 := rec2.Rank(0)
	rk2.Begin(TrackHost, PhaseExchange, 1.0)
	rk2.Begin(TrackHost, PhaseFence, 2.0) // dropped
	rk2.End(3.0, 0)
	rk2.End(4.0, 0)
	spans := rec2.RankSpans(0)
	if len(spans) != 1 || spans[0].Phase != PhaseExchange || spans[0].End != 4.0 {
		t.Errorf("spans after dropped Begin = %+v", spans)
	}
}

func TestWireCapDrops(t *testing.T) {
	rec := New(Options{Trace: true, WireCap: 3})
	for i := 0; i < 8; i++ {
		rec.Wire(WireEvent{Src: i, Bytes: 10, Kind: "inter"})
	}
	if got := len(rec.WireEvents()); got != 3 {
		t.Errorf("kept %d wire events, want 3", got)
	}
	if got := rec.DroppedWire(); got != 5 {
		t.Errorf("dropped %d wire events, want 5", got)
	}
}

func TestMetricsRegistry(t *testing.T) {
	m := newMetrics()
	m.Add("b", 2)
	m.Add("a", 1)
	m.Add("a", 3)
	m.Set("g", 1.5)
	m.Observe("h", 1)
	m.Observe("h", 3)
	if got := m.Counter("a"); got != 4 {
		t.Errorf("counter a = %d, want 4", got)
	}
	if names := m.Snapshot().CounterNames(); len(names) != 2 || names[0] != "a" || names[1] != "b" {
		t.Errorf("counter names = %v", names)
	}
	if v, ok := m.Snapshot().Gauges["g"]; !ok || v != 1.5 {
		t.Errorf("gauge g = %v, %v", v, ok)
	}
	h, ok := m.Hist("h")
	if !ok || h.Count != 2 || h.Mean() != 2 || h.Min != 1 || h.Max != 3 {
		t.Errorf("hist h = %+v, %v", h, ok)
	}
}

func TestCompressionStats(t *testing.T) {
	rec := New(Options{Metrics: true})
	rk := rec.Rank(0)
	raw, wire, eb := CompressMetricNames("fwd0")
	rk.Add(raw, 1600)
	rk.Add(wire, 400)
	rk.Set(eb, 1e-7)
	stats := rec.Metrics().CompressionStats()
	if len(stats) != 1 {
		t.Fatalf("got %d stats, want 1", len(stats))
	}
	s := stats[0]
	if s.Label != "fwd0" || s.RawBytes != 1600 || s.WireBytes != 400 || s.ErrorBound != 1e-7 {
		t.Errorf("stat = %+v", s)
	}
	if s.Ratio() != 4 {
		t.Errorf("ratio = %v, want 4", s.Ratio())
	}
}

func TestPhaseBreakdown(t *testing.T) {
	rec := New(Options{Trace: true})
	for id := 0; id < 2; id++ {
		rk := rec.Rank(id)
		rk.Begin(TrackHost, PhasePack, 0)
		rk.End(1, 100)
		rk.Begin(TrackHost, PhaseExchange, 1)
		// Nested detail must not count toward the breakdown sum.
		rk.Span(TrackHost, PhaseFence, 2.5, 3, 0)
		rk.End(3, 200)
		rk.Begin(TrackHost, PhaseFFT, 3)
		rk.End(4, 0)
		// GPU-track spans are excluded from the host breakdown too.
		rk.Span(TrackGPU, PhaseCompress, 0, 4, 0)
	}
	b := rec.PhaseBreakdown()
	if b.Ranks != 2 {
		t.Fatalf("ranks = %d, want 2", b.Ranks)
	}
	if b.Wall != 4 {
		t.Errorf("wall = %v, want 4", b.Wall)
	}
	if got := b.Sum(); got != 4 {
		t.Errorf("sum = %v, want 4 (pack 1 + exchange 2 + fft 1)", got)
	}
	if c := b.Coverage(); c != 1 {
		t.Errorf("coverage = %v, want 1", c)
	}
	var sb strings.Builder
	rec.WriteReport(&sb)
	out := sb.String()
	for _, want := range []string{"phase breakdown", "pack", "exchange", "fft", "wall"} {
		if !strings.Contains(out, want) {
			t.Errorf("report missing %q:\n%s", want, out)
		}
	}
}

// TestSnapshotConsistent checks that Snapshot copies, not aliases, the
// registry: mutations after the snapshot must not show through.
func TestSnapshotConsistent(t *testing.T) {
	m := newMetrics()
	m.Add("c", 1)
	m.Set("g", 2)
	m.Observe("h", 3)
	snap := m.Snapshot()
	m.Add("c", 10)
	m.Set("g", 20)
	m.Observe("h", 30)
	if snap.Counters["c"] != 1 || snap.Gauges["g"] != 2 || snap.Hists["h"].Count != 1 {
		t.Fatalf("snapshot aliases live registry: %+v", snap)
	}
	if m.Counter("c") != 11 {
		t.Fatalf("live registry wrong: %d", m.Counter("c"))
	}
}

func TestSnapshotNilMetrics(t *testing.T) {
	var m *Metrics
	snap := m.Snapshot()
	if len(snap.Counters) != 0 || len(snap.CounterNames()) != 0 {
		t.Fatal("nil Metrics snapshot must be empty and usable")
	}
}
