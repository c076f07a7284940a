package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"regexp"
	"strings"
	"testing"
)

// contract is BENCHMARK.json as the smoke test needs it.
type contract struct {
	Workloads []struct{ Name string } `json:"workloads"`
	EndToEnd  []contractMetric        `json:"end_to_end"`
	PerLayer  []contractMetric        `json:"per_layer"`
}

type contractMetric struct{ Name, Unit string }

var validName = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

// TestSmoke runs every workload at reduced size (6–12 ranks, 16³, one
// repetition of one op), untraced and traced, and holds the output to
// BENCHMARK.json: every metric named there is emitted exactly once per
// workload with its unit, names are well-formed, and no op fails. An API
// refactor that breaks the benchmark fails here, inside `go test ./...`.
func TestSmoke(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var c contract
	if err := json.Unmarshal(data, &c); err != nil {
		t.Fatal(err)
	}
	full := workloads(false)
	if len(c.Workloads) != len(full) {
		t.Fatalf("BENCHMARK.json names %d workloads, the benchmark has %d", len(c.Workloads), len(full))
	}
	for i, w := range full {
		if c.Workloads[i].Name != w.name {
			t.Errorf("workload %d: BENCHMARK.json says %q, the benchmark %q", i, c.Workloads[i].Name, w.name)
		}
	}

	outDir := t.TempDir()
	for _, w := range workloads(true) {
		for _, traced := range []bool{false, true} {
			want := c.EndToEnd
			if traced {
				want = c.PerLayer
			}
			rc := runConfig{seed: 7, minReps: 1, traced: traced, outDir: outDir}
			var buf bytes.Buffer
			r := runWorkload(w, rc, &buf)
			if err := r.print(&buf, w.name, metricDefs(traced)); err != nil {
				t.Fatal(err)
			}
			lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
			var got report
			if err := json.Unmarshal([]byte(lines[len(lines)-1]), &got); err != nil {
				t.Fatalf("%s: result line: %v", w.name, err)
			}
			if !got.Correct || got.Failed != 0 || got.Attempted < 1 {
				t.Errorf("%s traced=%v: correct=%v attempted=%d failed=%d", w.name, traced, got.Correct, got.Attempted, got.Failed)
			}
			if len(got.Metrics) != len(want) {
				t.Errorf("%s traced=%v: %d metrics emitted, BENCHMARK.json names %d", w.name, traced, len(got.Metrics), len(want))
			}
			for _, m := range want {
				if !validName.MatchString(m.Name) {
					t.Errorf("metric name %q is malformed", m.Name)
				}
				v, ok := got.Metrics[m.Name]
				if !ok || v.Unit != m.Unit || v.Unit == "" {
					t.Errorf("%s: metric %s: emitted=%v unit %q, BENCHMARK.json says %q", w.name, m.Name, ok, v.Unit, m.Unit)
				}
				if n := strings.Count(buf.String(), " "+m.Name+" "); n != 1 {
					t.Errorf("%s: metric %s printed %d times", w.name, m.Name, n)
				}
				if !traced && !(v.Value > 0) {
					t.Errorf("%s: end-to-end metric %s = %v, must never be 0", w.name, m.Name, v.Value)
				}
			}
		}
		if _, err := os.Stat(outDir + "/" + w.name + ".spans.json"); err != nil {
			t.Errorf("%s: traced pass left no spans: %v", w.name, err)
		}
	}
}

// cannedTraces is `go tool pprof -traces` text: header, then one block
// per sample, leaf first.
const cannedTraces = `File: benchmark
Type: cpu
Time: 2026-09-26 20:28:52 UTC
Duration: 3.21s, Total samples = 100ms (3.12%)
-----------+-------------------------------------------------------
      30ms   runtime.memmove
             repro/internal/grid.Pack[go.shape.complex128]
             repro/internal/core.(*reshape[go.shape.complex128]).execute.func1
             repro/internal/gpu.(*Stream).LaunchTagged
             main.(*workload).runRep.func1
             repro/internal/netsim.newEngine.func1
-----------+-------------------------------------------------------
      20ms   encoding/binary.littleEndian.PutUint32
             repro/internal/compress.Cast32.Compress
             repro/internal/exchange.(*CompressedOSC).Exchange.func1
-----------+-------------------------------------------------------
      10ms   runtime.futex
             runtime.notesleep
             runtime.findRunnable
             runtime.schedule
-----------+-------------------------------------------------------
      10ms   runtime.scanobject
             runtime.gcDrain
             runtime.gcBgMarkWorker.func2
-----------+-------------------------------------------------------
      10ms   runtime.memmove
             runtime.copystack
             runtime.newstack
-----------+-------------------------------------------------------
      10ms   repro/internal/obs/errtrack.(*Tracker).Add
             repro/internal/exchange.(*CompressedOSC).Exchange
-----------+-------------------------------------------------------
      10ms   runtime.nanotime
             time.Now
             main.(*marks).opDone
`

func TestFoldTraces(t *testing.T) {
	shares, err := foldTraces(strings.NewReader(cannedTraces))
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]float64{
		"grid.self_frac":     0.3, // a runtime leaf goes to the innermost repo frame, not to core or gpu above it
		"compress.self_frac": 0.2, // likewise a standard-library leaf
		"runtime.sched_frac": 0.1,
		"runtime.gc_frac":    0.1,
		"runtime.mem_frac":   0.1, // memmove with no repo frame on the stack
		"other.self_frac":    0.2, // a repo package outside the nine layers; the benchmark's own frames
	}
	sum := 0.0
	for name, share := range shares {
		sum += share
		if math.Abs(share-want[name]) > 1e-9 {
			t.Errorf("%s = %v, want %v", name, share, want[name])
		}
	}
	if len(shares) != len(want) || math.Abs(sum-1) > 1e-9 {
		t.Errorf("shares %v sum to %v, want %d shares summing to 1", shares, sum, len(want))
	}
	if _, err := foldTraces(strings.NewReader("File: x\nType: cpu\n")); err == nil {
		t.Error("a profile without samples must be reported")
	}
}

func TestSummarize(t *testing.T) {
	var samples []float64
	for i := 100; i >= 1; i-- {
		samples = append(samples, float64(i))
	}
	s := summarize(samples)
	if s.n != 100 || s.median != 50.5 || s.q1 != 25.75 || s.q3 != 75.25 {
		t.Errorf("summary %+v", s)
	}
	// Ten samples (91..100) lie beyond the 90th of 100.
	if s.tailPct != 90 || s.tail != 90 {
		t.Errorf("tail p%v = %v, want p90 = 90", s.tailPct, s.tail)
	}
	if few := summarize(samples[:19]); few.tailPct != 0 {
		t.Errorf("19 samples cannot carry a tail percentile, got p%v", few.tailPct)
	}
}
