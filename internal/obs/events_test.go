package obs

import (
	"encoding/json"
	"errors"
	"strings"
	"sync"
	"testing"
)

// sinkEvents decodes a JSONL sink back into events, in stream order —
// the same path errmap -replay reads.
func sinkEvents(t *testing.T, jsonl string) []Event {
	t.Helper()
	var evs []Event
	for _, line := range strings.Split(strings.TrimSpace(jsonl), "\n") {
		var ev Event
		if err := json.Unmarshal([]byte(line), &ev); err != nil {
			t.Fatalf("sink line not JSON: %v: %s", err, line)
		}
		evs = append(evs, ev)
	}
	return evs
}

func TestEventLogRunMarkers(t *testing.T) {
	l := NewEventLog()
	var buf strings.Builder
	l.SetSink(&buf)
	l.StartRun("cell-a")
	l.Emit(Event{Kind: EventRepair, Peer: 2})
	l.StartRun("cell-b")
	l.Emit(Event{Kind: EventRepair, Peer: 3})
	evs := sinkEvents(t, buf.String())
	if len(evs) != 4 {
		t.Fatalf("got %d events, want 4", len(evs))
	}
	if evs[0].Kind != EventRun || evs[0].Label != "cell-a" || evs[0].Run != 1 {
		t.Fatalf("first marker wrong: %+v", evs[0])
	}
	if evs[1].Run != 1 {
		t.Fatalf("cell-a event has run %d, want 1", evs[1].Run)
	}
	if evs[2].Kind != EventRun || evs[2].Run != 2 || evs[3].Run != 2 {
		t.Fatalf("cell-b run stamping wrong: %+v %+v", evs[2], evs[3])
	}
}

func TestEventLogSinkJSONL(t *testing.T) {
	l := NewEventLog()
	var buf strings.Builder
	l.SetSink(&buf)
	l.Emit(Event{T: 1.5, Rank: 2, Kind: EventError, Label: "fwd0", Peer: -1, Value: 1e-8, Bound: 1e-7})
	l.Emit(Event{T: 2.0, Rank: 0, Kind: EventFault, Label: "stall", Peer: 3, Value: 1e-6})
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 2 {
		t.Fatalf("sink got %d lines, want 2", len(lines))
	}
	var ev Event
	if err := json.Unmarshal([]byte(lines[0]), &ev); err != nil {
		t.Fatalf("line 0 not JSON: %v", err)
	}
	if ev.Kind != EventError || ev.Label != "fwd0" || ev.Bound != 1e-7 {
		t.Fatalf("round-tripped event wrong: %+v", ev)
	}
	// Optional fields must be omitted when zero.
	if strings.Contains(lines[1], "bound") || strings.Contains(lines[1], "msg") {
		t.Fatalf("zero optional fields serialized: %s", lines[1])
	}
}

type failWriter struct{ after int }

func (w *failWriter) Write(p []byte) (int, error) {
	if w.after <= 0 {
		return 0, errors.New("disk full")
	}
	w.after--
	return len(p), nil
}

func TestEventLogSinkErrorRemembered(t *testing.T) {
	l := NewEventLog()
	l.SetSink(&failWriter{after: 1})
	l.Emit(Event{Kind: EventFault})
	if err := l.SinkErr(); err != nil {
		t.Fatalf("unexpected early sink error: %v", err)
	}
	l.Emit(Event{Kind: EventFault})
	if err := l.SinkErr(); err == nil {
		t.Fatal("sink error not remembered")
	}
	// Further emits are still counted.
	l.Emit(Event{Kind: EventFault})
	if got := l.Total(); got != 3 {
		t.Fatalf("Total = %d, want 3", got)
	}
}

func TestEventLogObservers(t *testing.T) {
	l := NewEventLog()
	var a, b []Event
	l.Observe(func(ev Event) { a = append(a, ev) })
	l.Observe(func(ev Event) { b = append(b, ev) })
	l.StartRun("cell")
	l.Emit(Event{Kind: EventFault})
	if len(a) != 2 || len(b) != 2 || a[1].Kind != EventFault || a[1] != b[1] {
		t.Fatalf("observer fan-out wrong: %+v / %+v", a, b)
	}
	if a[0].Seq != 1 || a[1].Seq != 2 || a[1].Run != 1 {
		t.Fatalf("observers see unstamped events: %+v", a)
	}
}

// TestEventLogConcurrentEmitters pins the stream-integrity contract
// under contention (run under -race in the verify tier): with many
// goroutines emitting at once, Total counts every emission, observers
// see every event in sequence order — the order a replay reads — and
// the JSONL sink — the stream errmap -replay checks — carries sequence
// numbers unique and contiguous from 1, ending in the run_end marker.
func TestEventLogConcurrentEmitters(t *testing.T) {
	const emitters = 8
	const perEmitter = 400
	l := NewEventLog()
	var buf strings.Builder
	l.SetSink(&buf)
	// The log calls observers under its lock, so this plain slice needs
	// no lock of its own (the race detector checks that claim).
	var observed []int64
	l.Observe(func(ev Event) { observed = append(observed, ev.Seq) })
	var wg sync.WaitGroup
	for g := 0; g < emitters; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < perEmitter; i++ {
				l.Emit(Event{Kind: EventErrAttr, Rank: g, Peer: i % 4, Value: 1e-5})
			}
		}(g)
	}
	wg.Wait()
	l.EmitEnd()

	const total = emitters*perEmitter + 1 // + the end marker
	if got := l.Total(); got != total {
		t.Fatalf("Total = %d, want %d", got, total)
	}
	if len(observed) != total {
		t.Fatalf("observer saw %d events, want %d", len(observed), total)
	}
	for i, seq := range observed {
		if want := int64(i + 1); seq != want {
			t.Fatalf("observer call %d saw seq %d, want %d", i, seq, want)
		}
	}
	evs := sinkEvents(t, buf.String())
	if len(evs) != total {
		t.Fatalf("sink holds %d events, want %d", len(evs), total)
	}
	// The sink is written under the log's lock, so its lines are in
	// sequence order: 1..total, with no gap or repeat.
	for i, ev := range evs {
		if want := int64(i + 1); ev.Seq != want {
			t.Fatalf("sink line %d has seq %d, want %d", i, ev.Seq, want)
		}
	}
	last := evs[len(evs)-1]
	if last.Kind != EventEnd || last.Value != float64(total) {
		t.Fatalf("stream does not end with a consistent run_end marker: %+v", last)
	}
	if got := l.Counts()[EventErrAttr]; got != emitters*perEmitter {
		t.Fatalf("Counts[%s] = %d, want %d", EventErrAttr, got, emitters*perEmitter)
	}
}

func TestEventLogNil(t *testing.T) {
	var l *EventLog
	l.Emit(Event{Kind: EventFault})
	l.StartRun("x")
	l.Observe(func(Event) {})
	l.SetSink(nil)
	if l.Total() != 0 || l.Counts() != nil || l.SinkErr() != nil {
		t.Fatal("nil EventLog must be inert")
	}
}
