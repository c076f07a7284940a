package telemetry

import (
	"bufio"
	"encoding/json"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/exchange"
	"repro/internal/mpi"
	"repro/internal/netsim"
	"repro/internal/obs"
)

func TestSessionOffIsNil(t *testing.T) {
	s, err := Start(Config{})
	if err != nil {
		t.Fatal(err)
	}
	if s != nil {
		t.Fatal("all-off config must return a nil session")
	}
	// Everything must be callable on nil.
	if s.Enabled() || s.Summary() != "" {
		t.Fatal("nil session not inert")
	}
	s.Attach(nil)
	s.StartRun("x")
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestSessionEndToEnd drives the full stack once: event log with JSONL
// sink, SLO engine from the shipped example config, a real faulty run
// attached, and a clean Close — then replays the sink file to check it
// is valid JSONL.
func TestSessionEndToEnd(t *testing.T) {
	dir := t.TempDir()
	events := filepath.Join(dir, "events.jsonl")
	s, err := Start(Config{
		EventLog: events,
		SLO:      "../../../docs/slo.example.json",
	})
	if err != nil {
		t.Fatal(err)
	}
	if !s.Enabled() || s.eng == nil {
		t.Fatal("session incomplete")
	}

	rec := obs.New(obs.Options{Metrics: true})
	s.Attach(rec)
	s.StartRun("faulty-cell")
	cfg := netsim.Summit(1)
	cfg.Faults = netsim.RandomPlan(3)
	_, runErr := mpi.RunWithChecked(cfg, rec, func(c *mpi.Comm) {
		send := make([][]byte, c.Size())
		for d := range send {
			send[d] = make([]byte, 128)
		}
		for it := 0; it < 2; it++ {
			exchange.PairwiseAlltoallv(c, send)
		}
	})
	_ = runErr // crashes are a legal outcome of a fault plan

	if s.log.Counts()[obs.EventFault] == 0 {
		t.Fatal("fault plan produced no fault events")
	}

	if sum := s.Summary(); sum == "" {
		t.Fatal("empty summary")
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	// The sink file must be one valid Event per line, starting with the
	// run marker.
	f, err := os.Open(events)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 0, 1<<20), 1<<20)
	var n int
	var first obs.Event
	for sc.Scan() {
		var ev obs.Event
		if err := json.Unmarshal(sc.Bytes(), &ev); err != nil {
			t.Fatalf("sink line %d not JSON: %v: %s", n, err, sc.Text())
		}
		if n == 0 {
			first = ev
		}
		n++
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	if n < 2 || first.Kind != obs.EventRun || first.Label != "faulty-cell" {
		t.Fatalf("sink stream wrong: %d lines, first %+v", n, first)
	}
}

// TestSessionSLOOnly checks the cheapest configuration: no sink, just
// objective tracking.
func TestSessionSLOOnly(t *testing.T) {
	s, err := Start(Config{SLO: "../../../docs/slo.example.json"})
	if err != nil {
		t.Fatal(err)
	}
	s.StartRun("cell")
	for i := 0; i < 3; i++ {
		s.log.Emit(obs.Event{T: float64(i) * 1e-5, Kind: obs.EventRepair})
	}
	if s.eng.TotalBreaches() == 0 {
		t.Fatal("repair-budget objective did not breach")
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
}

func TestSessionBadConfigs(t *testing.T) {
	if _, err := Start(Config{SLO: "does-not-exist.json"}); err == nil {
		t.Fatal("missing SLO config accepted")
	}
	if _, err := Start(Config{EventLog: filepath.Join("no", "such", "dir", "x.jsonl")}); err == nil {
		t.Fatal("unwritable event log path accepted")
	}
	// A bad SLO config fails before the sink is created: no empty event
	// log is left behind.
	events := filepath.Join(t.TempDir(), "events.jsonl")
	if _, err := Start(Config{EventLog: events, SLO: "does-not-exist.json"}); err == nil {
		t.Fatal("missing SLO config accepted with an event log")
	}
	if _, err := os.Stat(events); !os.IsNotExist(err) {
		t.Fatalf("bad -slo left an event log behind: stat err = %v", err)
	}
}
