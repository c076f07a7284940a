package analyze_test

import (
	"bytes"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/compress"
	"repro/internal/core"
	"repro/internal/netsim"
	"repro/internal/obs"
	"repro/internal/obs/analyze"
)

// tracedRun records one compressed forward FFT on a 2-node Summit slice
// — the richest trace shape: all five pipeline phases, GPU compression
// kernels, compress-wait stalls, and traffic on every fabric level.
func tracedRun(t *testing.T) *obs.Recorder {
	t.Helper()
	rec := obs.New(obs.Options{Trace: true, Metrics: true})
	opts := core.Options{Backend: core.BackendCompressed, Method: compress.Cast32{}}
	res := core.MeasureWith[complex128](rec, netsim.Summit(2), [3]int{16, 16, 16}, opts, 1, false)
	if res.ForwardTime <= 0 {
		t.Fatalf("forward time = %v", res.ForwardTime)
	}
	return rec
}

// TestCriticalPathSelfConsistent pins the acceptance criterion: the
// extracted path tiles the recording's end-to-end window — contiguous
// segments, summing to the wall time within 1%.
func TestCriticalPathSelfConsistent(t *testing.T) {
	tr := analyze.FromRecorder(tracedRun(t))
	begin, end, ok := tr.Extent()
	if !ok {
		t.Fatal("empty trace")
	}
	wall := end - begin

	p := analyze.CriticalPath(tr)
	if p.BoundRank < 0 {
		t.Fatal("no bound rank")
	}
	if len(p.Segments) == 0 {
		t.Fatal("no segments")
	}
	if d := math.Abs(p.End-p.Start-wall) / wall; d > 0.01 {
		t.Errorf("path duration %.6g vs wall %.6g: off by %.2f%%, want <1%%", p.End-p.Start, wall, 100*d)
	}
	eps := wall * 1e-9
	var sum float64
	for i, s := range p.Segments {
		if s.End < s.Begin {
			t.Fatalf("segment %d inverted: [%g, %g]", i, s.Begin, s.End)
		}
		sum += s.Duration()
		if i > 0 && math.Abs(p.Segments[i-1].End-s.Begin) > eps {
			t.Fatalf("segment %d not contiguous: prev end %.9g, begin %.9g", i, p.Segments[i-1].End, s.Begin)
		}
	}
	if math.Abs(p.Segments[0].Begin-begin) > eps {
		t.Errorf("path starts at %.9g, trace at %.9g", p.Segments[0].Begin, begin)
	}
	if math.Abs(p.Segments[len(p.Segments)-1].End-end) > eps {
		t.Errorf("path ends at %.9g, trace at %.9g", p.Segments[len(p.Segments)-1].End, end)
	}
	if d := math.Abs(sum-wall) / wall; d > 0.01 {
		t.Errorf("segment sum %.6g vs wall %.6g: off by %.2f%%, want <1%%", sum, wall, 100*d)
	}
	// A multi-node exchange-bound run must put wire time on the path.
	if len(p.LinkSeconds()) == 0 {
		t.Error("no wire segments on the critical path of a 2-node run")
	}
}

// TestUtilizationBounded pins the second acceptance criterion: busy-time
// occupancy per link bin never exceeds 100% — netsim's FIFO resources
// guarantee disjoint occupancy windows, and the analysis must not
// double-count them.
func TestUtilizationBounded(t *testing.T) {
	tr := analyze.FromRecorder(tracedRun(t))
	res := analyze.Utilization(tr, 64)
	if len(res) == 0 {
		t.Fatal("no resources")
	}
	kinds := map[string]bool{}
	for _, r := range res {
		kinds[r.Kind] = true
		if r.Mean < 0 || r.Mean > 1+1e-9 {
			t.Errorf("%s mean occupancy %.4f out of [0,1]", r.Name, r.Mean)
		}
		for b, v := range r.Bins {
			if v < 0 || v > 1+1e-9 {
				t.Errorf("%s bin %d occupancy %.4f exceeds 100%%", r.Name, b, v)
			}
		}
		if r.Peak > 1+1e-9 {
			t.Errorf("%s peak %.4f exceeds 100%%", r.Name, r.Peak)
		}
		if (r.Kind == "egress" || r.Kind == "ingress" || r.Kind == "bus") && r.Capacity <= 0 {
			t.Errorf("%s capacity missing", r.Name)
		}
	}
	for _, want := range []string{"egress", "ingress", "bus", "gpu"} {
		if !kinds[want] {
			t.Errorf("no %s resource in %d-resource report", want, len(res))
		}
	}
}

// TestChromeRoundTrip: saving a trace and loading it back preserves
// everything the analyses consume.
func TestChromeRoundTrip(t *testing.T) {
	rec := tracedRun(t)
	direct := analyze.FromRecorder(rec)

	var buf bytes.Buffer
	if err := rec.WriteChromeTrace(&buf); err != nil {
		t.Fatal(err)
	}
	loaded, err := analyze.LoadChromeTrace(&buf)
	if err != nil {
		t.Fatal(err)
	}

	if loaded.Machine != direct.Machine {
		t.Errorf("machine: loaded %+v, direct %+v", loaded.Machine, direct.Machine)
	}
	if got, want := len(loaded.Wire), len(direct.Wire); got != want {
		t.Errorf("wire events: loaded %d, direct %d", got, want)
	}
	if got, want := len(loaded.Ranks()), len(direct.Ranks()); got != want {
		t.Errorf("ranks: loaded %d, direct %d", got, want)
	}
	db, de, _ := direct.Extent()
	lb, le, ok := loaded.Extent()
	if !ok {
		t.Fatal("loaded trace empty")
	}
	// Timestamps round-trip through microseconds; allow float slop.
	if math.Abs(lb-db) > 1e-9 || math.Abs(le-de) > 1e-9 {
		t.Errorf("extent: loaded [%g, %g], direct [%g, %g]", lb, le, db, de)
	}
	dp, lp := analyze.CriticalPath(direct), analyze.CriticalPath(loaded)
	dd, ld := dp.End-dp.Start, lp.End-lp.Start
	if wall := de - db; math.Abs(dd-ld) > 0.001*wall {
		t.Errorf("critical path: loaded %.6g, direct %.6g", ld, dd)
	}
}

// TestSummarize checks the digest is coherent: pipeline phases present,
// on-path attribution bounded by wall, overlap present for a pipelined
// compressed run.
func TestSummarize(t *testing.T) {
	tr := analyze.FromRecorder(tracedRun(t))
	s := analyze.Summarize(tr, 32)
	if s.Ranks != 12 {
		t.Errorf("ranks = %d, want 12", s.Ranks)
	}
	if s.WallSeconds <= 0 {
		t.Fatal("no wall time")
	}
	var pathSum float64
	for _, v := range s.PathSeconds {
		pathSum += v
	}
	if d := math.Abs(pathSum-s.WallSeconds) / s.WallSeconds; d > 0.01 {
		t.Errorf("path decomposition sums to %.6g, wall %.6g", pathSum, s.WallSeconds)
	}
	seen := map[string]bool{}
	for _, p := range s.Phases {
		seen[p.Name] = true
		if p.OnPath < 0 || p.OnPath > s.WallSeconds*(1+1e-9) {
			t.Errorf("phase %s on-path %.6g out of [0, wall]", p.Name, p.OnPath)
		}
		if p.Slack < 0 {
			t.Errorf("phase %s slack %.6g negative", p.Name, p.Slack)
		}
	}
	for _, want := range []string{"pack", "exchange", "unpack", "fft"} {
		if !seen[want] {
			t.Errorf("phase %s missing from summary", want)
		}
	}
	if s.Overlap == nil {
		t.Fatal("no overlap stat for a compressed run")
	}
	if e := s.Overlap.Efficiency; e < 0 || e > 1 {
		t.Errorf("overlap efficiency %.3f out of [0,1]", e)
	}
	if s.Overlap.KernelSeconds <= 0 {
		t.Error("no compression kernel time")
	}
	var text bytes.Buffer
	s.WriteText(&text)
	if text.Len() == 0 {
		t.Error("empty text report")
	}
}

// TestDiffGate pins the benchdiff acceptance criterion: identical
// artifacts pass, a >=10% injected regression fails.
func TestDiffGate(t *testing.T) {
	base := &analyze.Artifact{
		Tool: "fftbench",
		Rows: []analyze.Row{
			{Name: "fp64", GPUs: 12, Seconds: 0.010, Gflops: 100},
			{Name: "fp64-32", GPUs: 12, Seconds: 0.008, Gflops: 125, MaxError: 1e-7},
			{Name: "osc", GPUs: 24, NodeBW: 1.5e10},
		},
	}
	same := *base
	if d := analyze.Diff(base, &same, 0.10); d.Regressed() {
		t.Errorf("identical artifacts regressed: %+v", d)
	}

	slower := *base
	slower.Rows = append([]analyze.Row(nil), base.Rows...)
	slower.Rows[0].Seconds = base.Rows[0].Seconds * 1.12 // +12% > 10% gate
	d := analyze.Diff(base, &slower, 0.10)
	if !d.Regressed() {
		t.Fatal("12% slowdown passed the 10% gate")
	}
	if len(d.Regressions) != 1 || d.Regressions[0].Metric != "seconds" {
		t.Errorf("regressions = %+v, want one seconds line", d.Regressions)
	}

	lessBW := *base
	lessBW.Rows = append([]analyze.Row(nil), base.Rows...)
	lessBW.Rows[2].NodeBW = base.Rows[2].NodeBW * 0.85 // -15% bandwidth
	if d := analyze.Diff(base, &lessBW, 0.10); !d.Regressed() {
		t.Error("15% bandwidth loss passed the 10% gate")
	}

	faster := *base
	faster.Rows = append([]analyze.Row(nil), base.Rows...)
	faster.Rows[0].Seconds = base.Rows[0].Seconds * 0.80
	if d := analyze.Diff(base, &faster, 0.10); d.Regressed() {
		t.Error("improvement flagged as regression")
	} else if len(d.Improvements) != 1 {
		t.Errorf("improvements = %+v, want one", d.Improvements)
	}

	missing := *base
	missing.Rows = base.Rows[:2] // osc/24 gone
	if d := analyze.Diff(base, &missing, 0.10); !d.Regressed() {
		t.Error("missing row passed the gate")
	}

	// A row whose numbers were earned on a degraded path (repairs,
	// fallback, losses) fails the gate even when its metrics are within
	// threshold: they are not comparable to the baseline's fast path.
	degraded := *base
	degraded.Rows = append([]analyze.Row(nil), base.Rows...)
	degraded.Rows[2].Faults = &analyze.FaultRow{Retries: 4, Repairs: 2}
	d = analyze.Diff(base, &degraded, 0.10)
	if !d.Regressed() || len(d.Degraded) != 1 || d.Degraded[0] != "osc/24" {
		t.Errorf("degraded row not flagged: %+v", d)
	}

	// Transparent transport retries alone are not a degradation.
	retried := *base
	retried.Rows = append([]analyze.Row(nil), base.Rows...)
	retried.Rows[2].Faults = &analyze.FaultRow{Drops: 3, Retries: 3}
	if d := analyze.Diff(base, &retried, 0.10); d.Regressed() {
		t.Errorf("retry-only row failed the gate: %+v", d)
	}

	// Rollbacks/restarts are recovery work: a recovered measurement is
	// not comparable to a fault-free baseline.
	recovered := *base
	recovered.Rows = append([]analyze.Row(nil), base.Rows...)
	recovered.Rows[2].Faults = &analyze.FaultRow{Crashes: 1, Rollbacks: 1, Restarts: 1, MTTRSeconds: 0.02}
	d = analyze.Diff(base, &recovered, 0.10)
	if !d.Regressed() || len(d.Degraded) != 1 {
		t.Errorf("recovered row not flagged: %+v", d)
	}

	// Checkpoint overhead appearing inside the measured window degrades
	// the row even with no crash: the baseline never paid it.
	ckpt := *base
	ckpt.Rows = append([]analyze.Row(nil), base.Rows...)
	ckpt.Rows[2].Faults = &analyze.FaultRow{Checkpoints: 4, CheckpointBytes: 4096}
	d = analyze.Diff(base, &ckpt, 0.10)
	if !d.Regressed() || len(d.Degraded) != 1 || d.Degraded[0] != "osc/24 [checkpoint overhead appeared]" {
		t.Errorf("checkpoint-overhead row not flagged: %+v", d)
	}

	// Both sides checkpointing: comparable, and MTTR is threshold-gated
	// like any lower-is-better metric.
	ckptBase := *base
	ckptBase.Rows = append([]analyze.Row(nil), base.Rows...)
	ckptBase.Rows[2].Faults = &analyze.FaultRow{Checkpoints: 4, CheckpointBytes: 4096, MTTRSeconds: 0.01}
	ckptNew := *base
	ckptNew.Rows = append([]analyze.Row(nil), base.Rows...)
	ckptNew.Rows[2].Faults = &analyze.FaultRow{Checkpoints: 4, CheckpointBytes: 4096, MTTRSeconds: 0.02}
	d = analyze.Diff(&ckptBase, &ckptNew, 0.10)
	if !d.Regressed() || len(d.Regressions) != 1 || d.Regressions[0].Metric != "mttr_seconds" {
		t.Errorf("MTTR doubling passed the gate: %+v", d)
	}
	if d := analyze.Diff(&ckptBase, &ckptBase, 0.10); d.Regressed() {
		t.Errorf("identical checkpointing artifacts regressed: %+v", d)
	}

	// Elastic shrink against a clean baseline: the run finished on fewer
	// ranks than it started with, so its numbers are never comparable —
	// the gate fails with an explicit diagnostic and the post-shrink
	// throughput ratio is reported alongside.
	shrunk := *base
	shrunk.Rows = append([]analyze.Row(nil), base.Rows...)
	shrunk.Rows[0].Seconds = base.Rows[0].Seconds * 1.05 // within threshold, still gated
	shrunk.Rows[0].Faults = &analyze.FaultRow{
		Crashes: 1, Rollbacks: 1, Shrinks: 1, RanksLost: 1,
		MigratedBytes: 1 << 20, ShrinkMTTRSeconds: 0.03,
	}
	d = analyze.Diff(base, &shrunk, 0.10)
	if !d.Regressed() || len(d.Degraded) != 1 ||
		d.Degraded[0] != "fp64/12 [shrink appeared: 1 arc(s), 1 rank(s) lost]" {
		t.Errorf("shrunk row not flagged explicitly: %+v", d)
	}
	if len(d.ShrinkRatios) != 1 || d.ShrinkRatios[0].Metric != "post_shrink_seconds" ||
		d.ShrinkRatios[0].New != shrunk.Rows[0].Seconds {
		t.Errorf("post-shrink throughput ratio missing: %+v", d.ShrinkRatios)
	}

	// Both sides shrunk identically: comparable again (the generic
	// degraded case is also skipped because the baseline is degraded),
	// and shrink MTTR gates like any lower-is-better metric.
	shrunkBase := shrunk
	shrunkWorse := *base
	shrunkWorse.Rows = append([]analyze.Row(nil), shrunk.Rows...)
	worse := *shrunk.Rows[0].Faults
	worse.ShrinkMTTRSeconds = 0.07
	shrunkWorse.Rows[0].Faults = &worse
	d = analyze.Diff(&shrunkBase, &shrunkWorse, 0.10)
	if !d.Regressed() || len(d.Regressions) != 1 || d.Regressions[0].Metric != "shrink_mttr_seconds" {
		t.Errorf("shrink-MTTR doubling passed the gate: %+v", d)
	}
	if len(d.Degraded) != 0 || len(d.ShrinkRatios) != 0 {
		t.Errorf("both-shrunk comparison flagged degraded: %+v", d)
	}
}

// TestDiffErrorGate pins the errtrack columns of the bench gate: per-
// stage worst errors are threshold-compared like any metric, baselines
// without error rows skip the comparison (old artifacts stay usable),
// and a bound violation or poisoned stage fails the gate with no
// baseline at all.
func TestDiffErrorGate(t *testing.T) {
	stage := func(worst float64) []analyze.ErrorStageRow {
		return []analyze.ErrorStageRow{{Label: "fwd0", Bound: 1e-3, WorstRel: worst, Values: 100}}
	}
	base := &analyze.Artifact{
		Tool: "fftbench",
		Rows: []analyze.Row{{Name: "fp64-16", GPUs: 12, Seconds: 0.01, Errors: stage(4e-4)}},
	}

	same := *base
	if d := analyze.Diff(base, &same, 0.10); d.Regressed() {
		t.Errorf("identical error rows regressed: %+v", d)
	}

	// Worst error growing past the threshold is a regression even while
	// still inside the theoretical bound: the compressor got worse.
	worse := *base
	worse.Rows = append([]analyze.Row(nil), base.Rows...)
	worse.Rows[0].Errors = stage(6e-4)
	d := analyze.Diff(base, &worse, 0.10)
	if !d.Regressed() || len(d.Regressions) != 1 || d.Regressions[0].Metric != "err/fwd0" {
		t.Errorf("50%% error growth passed the gate: %+v", d)
	}
	if len(d.OverBudget) != 0 {
		t.Errorf("in-bound growth flagged over budget: %v", d.OverBudget)
	}

	// A bound violation gates without any baseline comparison — the row
	// is new, so threshold logic never sees it.
	over := &analyze.Artifact{
		Tool: "fftbench",
		Rows: []analyze.Row{{Name: "new-cfg", GPUs: 24, Seconds: 0.01, Errors: stage(2e-3)}},
	}
	d = analyze.Diff(base, over, 0.10)
	if !d.Regressed() || len(d.OverBudget) != 1 {
		t.Fatalf("bound violation passed the gate: %+v", d)
	}
	var buf strings.Builder
	d.WriteText(&buf)
	if !strings.Contains(buf.String(), "OVERBUDGET") {
		t.Errorf("WriteText lacks OVERBUDGET line:\n%s", buf.String())
	}

	// Poisoned samples gate too.
	poisoned := *base
	poisoned.Rows = append([]analyze.Row(nil), base.Rows...)
	poisoned.Rows[0].Errors = []analyze.ErrorStageRow{{Label: "fwd0", Bound: 1e-3, WorstRel: 4e-4, Poisoned: 2}}
	if d := analyze.Diff(base, &poisoned, 0.10); !d.Regressed() || len(d.OverBudget) != 1 {
		t.Errorf("poisoned stage passed the gate: %+v", d)
	}

	// A baseline predating errtrack (no error rows) must not gate the
	// comparison — only the absolute budget check applies.
	old := &analyze.Artifact{
		Tool: "fftbench",
		Rows: []analyze.Row{{Name: "fp64-16", GPUs: 12, Seconds: 0.01}},
	}
	if d := analyze.Diff(old, base, 0.10); d.Regressed() {
		t.Errorf("new error rows against an old baseline regressed: %+v", d)
	}
}

// TestArtifactRoundTrip: write, load, schema validation.
func TestArtifactRoundTrip(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "bench.json")
	a := &analyze.Artifact{
		Tool:    "alltoallbench",
		Config:  map[string]string{"msg": "65536"},
		Machine: obs.Machine{Nodes: 2, GPUsPerNode: 6, InterBW: 2.5e10},
		Rows:    []analyze.Row{{Name: "linear", GPUs: 12, NodeBW: 1e10}},
	}
	if err := a.WriteFile(path); err != nil {
		t.Fatal(err)
	}
	got, err := analyze.LoadArtifact(path)
	if err != nil {
		t.Fatal(err)
	}
	if got.Schema != analyze.ArtifactSchema || got.Tool != a.Tool || len(got.Rows) != 1 ||
		got.Rows[0].Name != a.Rows[0].Name || got.Rows[0].NodeBW != a.Rows[0].NodeBW ||
		got.Machine != a.Machine {
		t.Errorf("round trip mismatch: %+v", got)
	}

	stale := filepath.Join(dir, "stale.json")
	if err := os.WriteFile(stale, []byte(`{"schema": 99, "tool": "fftbench", "rows": []}`), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := analyze.LoadArtifact(stale); err == nil {
		t.Error("schema-99 artifact accepted")
	}
}
