// Package obs is the unified tracing and metrics layer of the
// reproduction. It gives every layer of the stack — the netsim wire,
// the mpi runtime, the GPU stream model, the exchange implementations,
// and the distributed FFT pipeline — one place to record what happened
// on the virtual timeline: structured spans (rank, phase, begin/end in
// virtual seconds, bytes) and named metrics (counters, gauges,
// histograms). Exporters turn a recording into a Chrome-trace JSON file
// (chrome://tracing / Perfetto) or a plain-text phase-breakdown report.
//
// The package is dependency-free and built to disappear when unused:
// every method is safe on a nil receiver and allocates nothing in that
// case, so instrumented hot paths cost one pointer test when
// observability is off.
package obs

import (
	"sort"
	"sync"
)

// Phase identifies what a span measures. The five pipeline phases
// (Pack..Scale) are the paper's Fig. 5-8 decomposition of one transform;
// the remaining phases are nested detail (protocol and kernel activity
// inside a pipeline phase) and are excluded from phase-breakdown sums.
type Phase uint8

const (
	PhasePack Phase = iota
	PhaseExchange
	PhaseUnpack
	PhaseFFT
	PhaseScale
	PhaseCompress
	PhaseDecompress
	PhaseFence
	PhaseFlush
	PhaseCompressWait
	PhaseKernel
	numPhases
)

var phaseNames = [numPhases]string{
	"pack", "exchange", "unpack", "fft", "scale",
	"compress", "decompress", "fence", "flush", "compress-wait", "kernel",
}

// String returns the phase's report/trace name.
func (p Phase) String() string {
	if int(p) < len(phaseNames) {
		return phaseNames[p]
	}
	return "unknown"
}

// ParsePhase maps a report/trace name back to its Phase (the inverse of
// String), used when reloading a saved Chrome trace.
func ParsePhase(s string) (Phase, bool) {
	for i, n := range phaseNames {
		if n == s {
			return Phase(i), true
		}
	}
	return 0, false
}

// PipelinePhases are the top-level phases that partition a rank's
// timeline; their per-rank durations sum to (nearly) the wall time.
var PipelinePhases = [5]Phase{PhasePack, PhaseExchange, PhaseUnpack, PhaseFFT, PhaseScale}

// Pipeline reports whether p is one of the five top-level phases.
func (p Phase) Pipeline() bool {
	return p == PhasePack || p == PhaseExchange || p == PhaseUnpack ||
		p == PhaseFFT || p == PhaseScale
}

// Track separates the two execution timelines of one rank.
type Track uint8

const (
	TrackHost Track = iota // the rank's host program
	TrackGPU               // kernels on the rank's device stream
)

// Span is one timed interval on a rank's timeline.
type Span struct {
	Phase      Phase
	Track      Track
	Begin, End float64 // virtual seconds
	Bytes      int64   // payload attributed to the span (0 if n/a)
}

// WireEvent mirrors one netsim transfer on the shared timeline (a copy
// of netsim.TraceEvent, kept here so obs stays dependency-free).
type WireEvent struct {
	Src, Dst, Tag int
	Bytes         int
	Kind          string // "local", "intra", or "inter"
	// SrcNode and DstNode identify the link: an inter transfer occupies
	// SrcNode's egress NIC and DstNode's ingress NIC; an intra transfer
	// the bus of SrcNode.
	SrcNode, DstNode int
	Injected, End    float64
	Arrival          float64
	// Start is when the transfer began occupying its first path resource
	// and Ser the serialization time it held each resource (egress busy
	// [Start, Start+Ser], ingress busy [End−Ser, End]); per resource these
	// windows are disjoint, so utilization sums stay exact.
	Start, Ser float64
}

// Machine describes the simulated machine's resource capacities — just
// enough of the netsim config for utilization analysis, recorded here so
// a saved trace stays self-describing (obs must not import netsim).
type Machine struct {
	Nodes       int     `json:"nodes"`
	GPUsPerNode int     `json:"gpus_per_node"`
	InterBW     float64 `json:"inter_bw"` // bytes/s per node NIC direction
	IntraBW     float64 `json:"intra_bw"` // bytes/s per node bus
	LocalBW     float64 `json:"local_bw"` // bytes/s device-local copies
}

// Options configures a Recorder.
type Options struct {
	// Trace enables span and wire-event recording.
	Trace bool
	// Metrics enables the counter/gauge/histogram registry.
	Metrics bool
	// SpanCap bounds the spans kept per rank (0 selects 1<<18). Excess
	// spans are dropped and counted.
	SpanCap int
	// WireCap bounds the wire events kept in total (0 selects 1<<20).
	WireCap int
}

// DefaultSpanCap and DefaultWireCap bound recording memory on long runs.
const (
	DefaultSpanCap = 1 << 18
	DefaultWireCap = 1 << 20
)

// Recorder collects one run's spans, wire events, and metrics. A nil
// *Recorder is a valid, fully disabled recorder.
type Recorder struct {
	traceOn bool
	spanCap int
	wireCap int

	mu          sync.Mutex
	ranks       []*Rank
	wire        []WireEvent
	wireDropped int64
	machine     Machine

	metrics *Metrics
	// events, when non-nil, receives live telemetry events (phase
	// completions, faults, repairs, ...). Set before the run starts; not
	// synchronized against concurrent recording.
	events *EventLog
}

// New creates a Recorder. New(Options{}) records nothing but is still
// non-nil; use nil when observability is fully off.
func New(o Options) *Recorder {
	if o.SpanCap <= 0 {
		o.SpanCap = DefaultSpanCap
	}
	if o.WireCap <= 0 {
		o.WireCap = DefaultWireCap
	}
	r := &Recorder{traceOn: o.Trace, spanCap: o.SpanCap, wireCap: o.WireCap}
	if o.Metrics {
		r.metrics = newMetrics()
	}
	return r
}

// Tracing reports whether span recording is enabled.
func (r *Recorder) Tracing() bool { return r != nil && r.traceOn }

// SetMachine attaches the machine description of the run being recorded
// (mpi.RunWith does this automatically).
func (r *Recorder) SetMachine(m Machine) {
	if r == nil {
		return
	}
	r.mu.Lock()
	r.machine = m
	r.mu.Unlock()
}

// Machine returns the recorded machine description (zero value when
// never set).
func (r *Recorder) Machine() Machine {
	if r == nil {
		return Machine{}
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.machine
}

// Metrics returns the metric registry (nil when metrics are off).
func (r *Recorder) Metrics() *Metrics {
	if r == nil {
		return nil
	}
	return r.metrics
}

// SetEventLog attaches a live event log; subsequent phase completions
// and emitted events flow into it. Attach before the run starts (like
// SetMachine); detach by passing nil.
func (r *Recorder) SetEventLog(l *EventLog) {
	if r == nil {
		return
	}
	r.events = l
}

// EventLog returns the attached event log (nil when events are off).
func (r *Recorder) EventLog() *EventLog {
	if r == nil {
		return nil
	}
	return r.events
}

// Rank returns (creating on demand) the recording handle of one rank.
// Each rank's handle must be used from that rank's goroutine only, as
// netsim already requires of Proc. Returns nil on a nil Recorder.
func (r *Recorder) Rank(id int) *Rank {
	if r == nil || id < 0 {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	for id >= len(r.ranks) {
		r.ranks = append(r.ranks, nil)
	}
	if r.ranks[id] == nil {
		r.ranks[id] = &Rank{rec: r, id: id}
	}
	return r.ranks[id]
}

// Wire records one transfer on the shared timeline, keeping at most
// WireCap events (later events are dropped and counted).
func (r *Recorder) Wire(ev WireEvent) {
	if r == nil || !r.traceOn {
		return
	}
	r.mu.Lock()
	if len(r.wire) >= r.wireCap {
		r.wireDropped++
	} else {
		r.wire = append(r.wire, ev)
	}
	r.mu.Unlock()
	if r.metrics != nil {
		r.metrics.Add("wire/"+ev.Kind+"_bytes", int64(ev.Bytes))
	}
}

// WireEvents returns the recorded transfers in recording order.
func (r *Recorder) WireEvents() []WireEvent {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]WireEvent(nil), r.wire...)
}

// DroppedWire returns the number of wire events lost to the cap.
func (r *Recorder) DroppedWire() int64 {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.wireDropped
}

// DroppedSpans returns the spans lost to the per-rank cap, summed.
func (r *Recorder) DroppedSpans() int64 {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	var n int64
	for _, rk := range r.ranks {
		if rk != nil {
			n += rk.dropped
		}
	}
	return n
}

// RankSpans returns rank id's spans in begin order (nil if none).
func (r *Recorder) RankSpans(id int) []Span {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if id < 0 || id >= len(r.ranks) || r.ranks[id] == nil {
		return nil
	}
	return append([]Span(nil), r.ranks[id].spans...)
}

// RankIDs returns the ids of ranks that recorded at least one span.
func (r *Recorder) RankIDs() []int {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	var ids []int
	for id, rk := range r.ranks {
		if rk != nil && len(rk.spans) > 0 {
			ids = append(ids, id)
		}
	}
	sort.Ints(ids)
	return ids
}

// Rank is one rank's recording handle: a span stack for Begin/End
// nesting plus shortcuts into the shared metric registry. All methods
// are nil-safe and allocation-free when recording is off.
type Rank struct {
	rec     *Recorder
	id      int
	spans   []Span
	open    []openSpan
	dropped int64
}

// openSpan is one Begin waiting for its End. It carries the phase and
// begin time so End can emit a phase-completion event even when the
// span itself was dropped (or span retention is off entirely).
type openSpan struct {
	idx   int32 // index into spans; -1 when the span was not retained
	track Track
	ph    Phase
	begin float64
}

// Begin opens a nested span at virtual time t. Every Begin must be
// paired with an End on the same handle; pairs nest like a call stack.
func (rk *Rank) Begin(track Track, ph Phase, t float64) {
	if rk == nil || (!rk.rec.traceOn && rk.rec.events == nil) {
		return
	}
	idx := int32(-1)
	if rk.rec.traceOn {
		if len(rk.spans) >= rk.rec.spanCap {
			rk.dropped++
		} else {
			idx = int32(len(rk.spans))
			rk.spans = append(rk.spans, Span{Phase: ph, Track: track, Begin: t})
		}
	}
	rk.open = append(rk.open, openSpan{idx: idx, track: track, ph: ph, begin: t})
}

// End closes the innermost open span at virtual time t, attributing
// bytes to it. An unmatched End is ignored. When an event log is
// attached, the completion of a host-track pipeline phase is also
// emitted as an EventPhase event.
func (rk *Rank) End(t float64, bytes int64) {
	if rk == nil || len(rk.open) == 0 {
		return
	}
	o := rk.open[len(rk.open)-1]
	rk.open = rk.open[:len(rk.open)-1]
	if o.idx >= 0 {
		rk.spans[o.idx].End = t
		rk.spans[o.idx].Bytes = bytes
	}
	if l := rk.rec.events; l != nil && o.track == TrackHost && o.ph.Pipeline() {
		l.Emit(Event{
			T: t, Rank: rk.id, Kind: EventPhase,
			Label: o.ph.String(), Peer: -1, Value: t - o.begin,
		})
	}
}

// Span records a complete interval directly (used when begin and end are
// both known, e.g. a GPU kernel's scheduled window).
func (rk *Rank) Span(track Track, ph Phase, begin, end float64, bytes int64) {
	if rk == nil || !rk.rec.traceOn {
		return
	}
	if len(rk.spans) >= rk.rec.spanCap {
		rk.dropped++
		return
	}
	rk.spans = append(rk.spans, Span{Phase: ph, Track: track, Begin: begin, End: end, Bytes: bytes})
}

// Add increments a counter in the shared registry.
func (rk *Rank) Add(name string, v int64) {
	if rk == nil {
		return
	}
	rk.rec.metrics.Add(name, v)
}

// Set stores a gauge value in this rank's shard of the shared registry.
func (rk *Rank) Set(name string, v float64) {
	if rk == nil {
		return
	}
	rk.rec.metrics.set(name, rk.id+1, v)
}

// Observe records a histogram sample in this rank's shard of the shared
// registry.
func (rk *Rank) Observe(name string, v float64) {
	if rk == nil {
		return
	}
	rk.rec.metrics.observe(name, rk.id+1, v)
}

// EventsOn reports whether an event log is attached — the gate for
// instrumentation whose only purpose is to feed events (e.g. measuring
// achieved compression error), so it stays zero-cost when telemetry is
// off.
func (rk *Rank) EventsOn() bool {
	return rk != nil && rk.rec.events != nil
}

// Emit sends an event into the attached event log, stamping the rank
// id. A no-op without a log.
func (rk *Rank) Emit(ev Event) {
	if rk == nil || rk.rec.events == nil {
		return
	}
	ev.Rank = rk.id
	rk.rec.events.Emit(ev)
}
