package obs

import (
	"sync"
	"testing"
)

// TestRecorderConcurrentRanks pins the Recorder's concurrency
// contract: many goroutines may drive their own Rank handles — spans,
// counters, gauges, histograms — at the same time as another goroutine
// streams Wire events and other callers mint new handles via Rank().
// Run under -race (the verify tier does) this fails on any
// unsynchronized access inside the Recorder or the Metrics registry.
func TestRecorderConcurrentRanks(t *testing.T) {
	rec := New(Options{Trace: true, Metrics: true})
	const ranks = 16
	const events = 200
	var wg sync.WaitGroup
	for r := 0; r < ranks; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			rk := rec.Rank(r)
			for i := 0; i < events; i++ {
				t0 := float64(i)
				rk.Span(TrackHost, PhasePack, t0, t0+0.5, 64)
				rk.Add("pkts", 1)
				rk.Set("depth", float64(i))
				rk.Observe("lat", float64(i%7))
			}
		}(r)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < events; i++ {
			rec.Wire(WireEvent{Src: i % ranks, Dst: (i + 1) % ranks, Bytes: 128})
		}
	}()
	wg.Wait()

	if got := rec.Metrics().Counter("pkts"); got != ranks*events {
		t.Errorf("pkts counter = %d, want %d", got, ranks*events)
	}
	if h, ok := rec.Metrics().Hist("lat"); !ok || h.Count != ranks*events {
		t.Errorf("lat histogram incomplete: %+v", h)
	}
	if got := len(rec.WireEvents()); got != events {
		t.Errorf("wire events = %d, want %d", got, events)
	}
	for r := 0; r < ranks; r++ {
		if got := len(rec.RankSpans(r)); got != events {
			t.Errorf("rank %d spans = %d, want %d", r, got, events)
		}
	}
}

// TestShardsMergeInRankOrder: the registry's gauges and histograms do
// not depend on the order rank bodies write in. Arrival order would sum
// 1e16, 1, -1e16 to 0 one way and to 1 the other, and would keep
// whichever gauge came last.
func TestShardsMergeInRankOrder(t *testing.T) {
	type write struct {
		rank int
		v    float64
	}
	snap := func(order []write) Snapshot {
		rec := New(Options{Metrics: true})
		for _, w := range order {
			rec.Rank(w.rank).Observe("h", w.v)
			rec.Rank(w.rank).Set("g", float64(w.rank))
		}
		return rec.Metrics().Snapshot()
	}
	a := snap([]write{{0, 1e16}, {1, 1}, {0, -1e16}})
	b := snap([]write{{0, 1e16}, {0, -1e16}, {1, 1}})
	if a.Hists["h"] != b.Hists["h"] || a.Hists["h"].Sum != 1 {
		t.Errorf("histogram depends on arrival order: %+v vs %+v", a.Hists["h"], b.Hists["h"])
	}
	c := snap([]write{{1, 1}, {0, 1e16}, {0, -1e16}})
	if a.Gauges["g"] != 1 || c.Gauges["g"] != 1 {
		t.Errorf("gauge depends on arrival order: %v vs %v, want rank 1's value", a.Gauges["g"], c.Gauges["g"])
	}
}
