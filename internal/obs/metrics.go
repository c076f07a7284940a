package obs

import (
	"math"
	"sort"
	"strings"
	"sync"
)

// Metrics is a registry of named counters, gauges, and histograms.
// A nil *Metrics is valid and records nothing. Names are slash-scoped
// ("compress/fwd0/raw_bytes"); callers on hot paths should precompute
// them so recording stays allocation-free.
//
// Gauges and histograms keep one shard per writer: shard 0 for callers
// outside a rank body (drivers, the recovery controller), shard r+1 for
// rank r (Rank.Set, Rank.Observe). Reads merge the shards in shard
// order. Under the parallel engine rank bodies write in host order, and
// neither a float sum nor a last write is independent of that order;
// per-writer shards folded in rank order are.
type Metrics struct {
	mu       sync.Mutex
	counters map[string]int64
	gauges   map[string][]gauge
	hists    map[string][]hist
}

func newMetrics() *Metrics {
	return &Metrics{
		counters: make(map[string]int64),
		gauges:   make(map[string][]gauge),
		hists:    make(map[string][]hist),
	}
}

// gauge is one writer's last value of a gauge.
type gauge struct {
	v   float64
	set bool
}

// shard returns shard i of name's shards in m, growing them to hold it.
func shard[T any](m map[string][]T, name string, i int) *T {
	s := m[name]
	if i >= len(s) {
		s = append(s, make([]T, i+1-len(s))...)
		m[name] = s
	}
	return &s[i]
}

// hist is a power-of-two-bucket histogram over non-negative samples.
type hist struct {
	count     int64
	nonfinite int64 // NaN/±Inf samples rejected (they would poison sum/quantiles)
	sum       float64
	min, max  float64
	buckets   [64]int64 // bucket i holds samples in [2^(i-32), 2^(i-31))
}

func (h *hist) observe(v float64) {
	// A single NaN makes every later Sum/Mean NaN and an Inf saturates
	// them, so corrupted payloads (fault injection puts NaNs on the wire)
	// must never reach the accumulator. Rejections stay visible as a
	// separate count.
	if math.IsNaN(v) || math.IsInf(v, 0) {
		h.nonfinite++
		return
	}
	if h.count == 0 || v < h.min {
		h.min = v
	}
	if h.count == 0 || v > h.max {
		h.max = v
	}
	h.count++
	h.sum += v
	b := 0
	if v > 0 {
		b = int(math.Floor(math.Log2(v))) + 32
		if b < 0 {
			b = 0
		}
		if b > 63 {
			b = 63
		}
	}
	h.buckets[b]++
}

// mergeHists folds per-writer shards in shard order.
func mergeHists(hs []hist) hist {
	var out hist
	for i := range hs {
		h := &hs[i]
		out.nonfinite += h.nonfinite
		if h.count == 0 {
			continue
		}
		if out.count == 0 || h.min < out.min {
			out.min = h.min
		}
		if out.count == 0 || h.max > out.max {
			out.max = h.max
		}
		out.count += h.count
		out.sum += h.sum
		for b, n := range h.buckets {
			out.buckets[b] += n
		}
	}
	return out
}

// mergeGauges returns the last value of the highest shard that set one.
func mergeGauges(gs []gauge) float64 {
	for i := len(gs) - 1; i >= 0; i-- {
		if gs[i].set {
			return gs[i].v
		}
	}
	return 0
}

// Add increments counter name by v.
func (m *Metrics) Add(name string, v int64) {
	if m == nil {
		return
	}
	m.mu.Lock()
	m.counters[name] += v
	m.mu.Unlock()
}

// Set stores gauge name (last write wins).
func (m *Metrics) Set(name string, v float64) { m.set(name, 0, v) }

// Observe records one histogram sample under name.
func (m *Metrics) Observe(name string, v float64) { m.observe(name, 0, v) }

func (m *Metrics) set(name string, sh int, v float64) {
	if m == nil {
		return
	}
	m.mu.Lock()
	*shard(m.gauges, name, sh) = gauge{v: v, set: true}
	m.mu.Unlock()
}

func (m *Metrics) observe(name string, sh int, v float64) {
	if m == nil {
		return
	}
	m.mu.Lock()
	shard(m.hists, name, sh).observe(v)
	m.mu.Unlock()
}

// Counter returns the current value of a counter (0 if absent).
func (m *Metrics) Counter(name string) int64 {
	if m == nil {
		return 0
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.counters[name]
}

// HistStat summarizes one histogram. The quantiles are estimated from
// the power-of-two buckets (geometric bucket midpoints, clamped to the
// observed [Min, Max]), so they carry at most a factor-√2 resolution —
// enough to tell a tail from a shifted median.
type HistStat struct {
	Count         int64
	NonFinite     int64 // NaN/±Inf samples rejected, not in Count/Sum
	Sum           float64
	Min, Max      float64
	P50, P95, P99 float64
}

// Mean returns the sample mean (0 when empty).
func (s HistStat) Mean() float64 {
	if s.Count == 0 {
		return 0
	}
	return s.Sum / float64(s.Count)
}

// quantile estimates the q-quantile (0 < q ≤ 1) from the buckets.
//
// The estimator is nearest-rank over the power-of-two buckets: the
// target rank is ceil(q·count); the bucket containing that rank
// reports its geometric midpoint (2^(i-32)·√2), clamped to the
// observed [min, max]. Resolution is therefore a factor of √2 — enough
// to tell a tail from a shifted median, not enough to compare values
// inside one bucket.
//
// Tail behavior on small samples: when the target rank lands on the
// last observation (ceil(q·count) == count, true for p99 whenever
// count < 100), the estimate is exactly the observed maximum rather
// than a bucket midpoint. Nearest-rank selects the maximum there, and
// reporting the midpoint of a wide bucket would understate (or, after
// clamping, misstate) a tail the histogram has actually seen. With one
// sample every quantile collapses onto it.
func (h *hist) quantile(q float64) float64 {
	if h.count == 0 {
		return 0
	}
	target := int64(math.Ceil(q * float64(h.count)))
	if target < 1 {
		target = 1
	}
	if target >= h.count {
		return h.max
	}
	var cum int64
	for i, n := range h.buckets {
		cum += n
		if cum < target {
			continue
		}
		var v float64
		if i == 0 {
			// Bucket 0 collects non-positive and sub-2^-31 samples.
			v = h.min
		} else {
			v = math.Exp2(float64(i-32)) * math.Sqrt2 // geometric midpoint
		}
		if v < h.min {
			v = h.min
		}
		if v > h.max {
			v = h.max
		}
		return v
	}
	return h.max
}

func (h *hist) stat() HistStat {
	return HistStat{
		Count: h.count, NonFinite: h.nonfinite, Sum: h.sum, Min: h.min, Max: h.max,
		P50: h.quantile(0.50), P95: h.quantile(0.95), P99: h.quantile(0.99),
	}
}

// Hist returns a histogram's summary and whether it exists.
func (m *Metrics) Hist(name string) (HistStat, bool) {
	if m == nil {
		return HistStat{}, false
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	hs, ok := m.hists[name]
	if !ok {
		return HistStat{}, false
	}
	h := mergeHists(hs)
	return h.stat(), true
}

// Snapshot is a self-consistent copy of the whole registry, taken under
// one lock acquisition: every exporter-visible relation between values
// (raw vs. wire bytes, count vs. sum) holds within one snapshot, which
// per-name Counter/Gauge/Hist round-trips cannot guarantee while a run
// is mutating the registry.
type Snapshot struct {
	Counters map[string]int64
	Gauges   map[string]float64
	Hists    map[string]HistStat
}

// Snapshot copies the registry under a single lock acquisition. A nil
// registry yields an empty (but usable) snapshot.
func (m *Metrics) Snapshot() Snapshot {
	s := Snapshot{
		Counters: map[string]int64{},
		Gauges:   map[string]float64{},
		Hists:    map[string]HistStat{},
	}
	if m == nil {
		return s
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	for n, v := range m.counters {
		s.Counters[n] = v
	}
	for n, gs := range m.gauges {
		s.Gauges[n] = mergeGauges(gs)
	}
	for n, hs := range m.hists {
		h := mergeHists(hs)
		s.Hists[n] = h.stat()
	}
	return s
}

// CounterNames returns the snapshot's counter names, sorted.
func (s Snapshot) CounterNames() []string { return sortedKeysI(s.Counters) }

// GaugeNames returns the snapshot's gauge names, sorted.
func (s Snapshot) GaugeNames() []string { return sortedKeysF(s.Gauges) }

// HistNames returns the snapshot's histogram names, sorted.
func (s Snapshot) HistNames() []string {
	names := make([]string, 0, len(s.Hists))
	for n := range s.Hists {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

func sortedKeysI(m map[string]int64) []string {
	names := make([]string, 0, len(m))
	for n := range m {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

func sortedKeysF(m map[string]float64) []string {
	names := make([]string, 0, len(m))
	for n := range m {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// CompressionStats extracts the per-label compression counters from the
// snapshot, sorted by label (see Metrics.CompressionStats).
func (s Snapshot) CompressionStats() []CompressionStat {
	byLabel := make(map[string]*CompressionStat)
	get := func(label string) *CompressionStat {
		cs := byLabel[label]
		if cs == nil {
			cs = &CompressionStat{Label: label}
			byLabel[label] = cs
		}
		return cs
	}
	for name, v := range s.Counters {
		if !strings.HasPrefix(name, compressPrefix) {
			continue
		}
		switch {
		case strings.HasSuffix(name, rawBytesSuffix):
			get(name[len(compressPrefix) : len(name)-len(rawBytesSuffix)]).RawBytes = v
		case strings.HasSuffix(name, wireBytesSuffix):
			get(name[len(compressPrefix) : len(name)-len(wireBytesSuffix)]).WireBytes = v
		}
	}
	for name, v := range s.Gauges {
		if strings.HasPrefix(name, compressPrefix) && strings.HasSuffix(name, errBoundSuffix) {
			get(name[len(compressPrefix) : len(name)-len(errBoundSuffix)]).ErrorBound = v
		}
	}
	labels := make([]string, 0, len(byLabel))
	for l := range byLabel {
		labels = append(labels, l)
	}
	sort.Strings(labels)
	out := make([]CompressionStat, len(labels))
	for i, l := range labels {
		out[i] = *byLabel[l]
	}
	return out
}

// CounterNames returns all counter names, sorted.
func (m *Metrics) CounterNames() []string {
	if m == nil {
		return nil
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	names := make([]string, 0, len(m.counters))
	for n := range m.counters {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// Compression-metric naming convention shared by the exchange layer and
// the reports: each labelled compressing exchange maintains the pair
// "compress/<label>/raw_bytes" and "compress/<label>/wire_bytes" plus
// the gauge "compress/<label>/error_bound".
const (
	compressPrefix  = "compress/"
	rawBytesSuffix  = "/raw_bytes"
	wireBytesSuffix = "/wire_bytes"
	errBoundSuffix  = "/error_bound"
)

// CompressMetricNames returns the precomputed metric names of one
// labelled compressing exchange (raw counter, wire counter, error-bound
// gauge), for construction-time use by hot paths.
func CompressMetricNames(label string) (raw, wire, errBound string) {
	return compressPrefix + label + rawBytesSuffix,
		compressPrefix + label + wireBytesSuffix,
		compressPrefix + label + errBoundSuffix
}

// Error-provenance naming convention (internal/obs/errtrack): each
// labelled lossy exchange maintains per-epoch histograms of the worst
// relative error and the RMS error per destination block, plus a counter
// of the values whose error was measured.
const (
	errtrackPrefix = "errtrack/"
	maxRelSuffix   = "/max_rel"
	rmsSuffix      = "/rms"
	valuesSuffix   = "/values"
)

// ErrtrackMetricNames returns the precomputed metric names of one
// labelled exchange's error-attribution family (worst-relative-error
// histogram, RMS histogram, measured-values counter), for
// construction-time use by hot paths.
func ErrtrackMetricNames(label string) (maxRel, rms, values string) {
	return errtrackPrefix + label + maxRelSuffix,
		errtrackPrefix + label + rmsSuffix,
		errtrackPrefix + label + valuesSuffix
}

// CompressionStat is the achieved compression of one labelled exchange.
type CompressionStat struct {
	Label      string
	RawBytes   int64
	WireBytes  int64
	ErrorBound float64 // 0 when the gauge was never set
}

// Ratio returns raw/wire (1 when no bytes were recorded).
func (s CompressionStat) Ratio() float64 {
	if s.WireBytes == 0 {
		return 1
	}
	return float64(s.RawBytes) / float64(s.WireBytes)
}

// CompressionStats scans the registry for the per-label compression
// counters and returns one entry per label, sorted by label. This is
// what the benchmark drivers print as the *achieved* compression ratio
// (as opposed to the method's nominal one).
func (m *Metrics) CompressionStats() []CompressionStat {
	if m == nil {
		return nil
	}
	s := m.Snapshot().CompressionStats()
	if len(s) == 0 {
		return nil
	}
	return s
}
