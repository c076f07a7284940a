package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime/pprof"
	"time"
)

// span is one interval of the traced pass, recorded from the benchmark's
// own files around its calls into the layers:
//
//	workload > reference | rep[i] > setup | ops > op | verify
//	workload > replay.<layer>
//
// Times are seconds since the workload's trace began. Self is the
// duration minus the part covered by child spans.
type span struct {
	ID     int     `json:"id"`
	Parent int     `json:"parent"` // 0 for the root
	Name   string  `json:"name"`
	Start  float64 `json:"start_s"`
	End    float64 `json:"end_s"`
	Self   float64 `json:"self_s"`
}

// tracer keeps the spans of one workload in memory until the run ends.
// A nil tracer records nothing.
type tracer struct {
	t0    time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

func (t *tracer) begin(name string, parent int) int {
	if t == nil {
		return 0
	}
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Parent: parent, Name: name, Start: time.Since(t.t0).Seconds()})
	return len(t.spans)
}

func (t *tracer) end(id int) {
	if t == nil || id == 0 {
		return
	}
	t.spans[id-1].End = time.Since(t.t0).Seconds()
}

// add records a span whose ends were taken elsewhere (the op marks).
func (t *tracer) add(name string, parent int, start, end time.Time) {
	if t == nil {
		return
	}
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Parent: parent, Name: name,
		Start: start.Sub(t.t0).Seconds(), End: end.Sub(t.t0).Seconds()})
}

// write stores the spans, with self times filled in, as one JSON
// document: {"workload": ..., "spans": [...]}.
func (t *tracer) write(path, workload string) error {
	for i := range t.spans {
		t.spans[i].Self = t.spans[i].End - t.spans[i].Start
	}
	for _, s := range t.spans {
		if s.Parent > 0 {
			t.spans[s.Parent-1].Self -= s.End - s.Start
		}
	}
	data, err := json.MarshalIndent(struct {
		Workload string `json:"workload"`
		Spans    []span `json:"spans"`
	}{workload, t.spans}, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

// profiler records one CPU profile file per window, so that the setup
// window and the op loop can be folded separately (samples carry no
// timestamps). A nil profiler records nothing.
type profiler struct {
	prefix string              // <out>/<workload>
	files  map[string][]string // window → profile files
	cur    *os.File
	err    error // first failure; folding reports it
}

func newProfiler(outDir, workload string) (*profiler, error) {
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return nil, err
	}
	return &profiler{prefix: filepath.Join(outDir, workload), files: map[string][]string{}}, nil
}

func (p *profiler) start(window string) {
	if p == nil || p.err != nil {
		return
	}
	name := fmt.Sprintf("%s.%s.%d.pprof", p.prefix, window, len(p.files[window]))
	f, err := os.Create(name)
	if err == nil {
		err = pprof.StartCPUProfile(f)
	}
	if err != nil {
		p.err = err
		return
	}
	p.cur = f
	p.files[window] = append(p.files[window], name)
}

func (p *profiler) stop() {
	if p == nil || p.cur == nil {
		return
	}
	pprof.StopCPUProfile()
	if err := p.cur.Close(); err != nil && p.err == nil {
		p.err = err
	}
	p.cur = nil
}

// traceHooks ties one traced repetition's windows (setup, ops, verify)
// to spans under the repetition's span and, when prof is set, the setup
// and ops windows to CPU profiles. A nil *traceHooks is the untraced
// pass.
type traceHooks struct {
	tr     *tracer
	prof   *profiler
	parent int // the rep[i] span
	open   int // the current window's span
}

// window closes the open window, if any, and opens name ("" opens none).
func (h *traceHooks) window(name string) {
	if h == nil {
		return
	}
	// Starting and stopping a profile takes up to 0.2 s; keep it outside
	// the window's span (it lands in the self time of rep[i]).
	if h.open != 0 {
		h.tr.end(h.open)
		h.prof.stop()
		h.open = 0
	}
	if name == "" {
		return
	}
	if name != "verify" {
		h.prof.start(name)
	}
	h.open = h.tr.begin(name, h.parent)
}

// op records one steady-state op under the open ops window.
func (h *traceHooks) op(start, end time.Time) {
	if h == nil {
		return
	}
	h.tr.add("op", h.open, start, end)
}
