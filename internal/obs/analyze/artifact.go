package analyze

import (
	"encoding/json"
	"fmt"
	"os"

	"repro/internal/obs"
	"repro/internal/obs/errtrack"
)

// ArtifactSchema is the current bench-artifact schema version. Loaders
// reject other versions so a silent format drift cannot masquerade as a
// performance change.
const ArtifactSchema = 1

// Artifact is the machine-readable result of one benchmark run: the
// configuration it ran under, one Row per measured configuration, and
// (optionally) the analyze summaries. All times are virtual seconds from
// the simulator, so artifacts are deterministic and diffable.
type Artifact struct {
	Schema int    `json:"schema"`
	Tool   string `json:"tool"` // "fftbench" or "alltoallbench"
	// Config snapshots the driver flags that shaped the run.
	Config  map[string]string `json:"config,omitempty"`
	Machine obs.Machine       `json:"machine,omitempty"`
	Rows    []Row             `json:"rows"`
}

// Row is one measured configuration.
type Row struct {
	Name string `json:"name"` // configuration/algorithm name
	GPUs int    `json:"gpus"`
	// Precision is the FFT pipeline precision in bits (64 or 32); 0 for
	// rows without a compute pipeline (alltoallbench). The benchdiff
	// tuned-vs-best-fixed gate only compares rows of equal precision —
	// the tuner picks exchanges within a pipeline, it cannot trade the
	// pipeline's own compute precision.
	Precision int `json:"precision,omitempty"`
	// Seconds is the end-to-end virtual time per iteration (lower is
	// better); Gflops the derived rate. NodeBW is the achieved per-node
	// exchange bandwidth in bytes/s (higher is better; alltoallbench).
	Seconds float64 `json:"seconds,omitempty"`
	Gflops  float64 `json:"gflops,omitempty"`
	NodeBW  float64 `json:"node_bw,omitempty"`
	// MaxError is the measured worst-case relative error for lossy
	// configurations.
	MaxError    float64          `json:"max_error,omitempty"`
	Compression []CompressionRow `json:"compression,omitempty"`
	// Model compares each reshape's measured exchange time against the
	// analytic cost model.
	Model []ModelDelta `json:"model,omitempty"`
	// Analysis is the trace summary (critical path, utilization,
	// overlap) when the run was traced.
	Analysis *Summary `json:"analysis,omitempty"`
	// Faults holds the run's fault-injection and recovery counters (nil
	// for fault-free runs, which keeps committed baselines unchanged).
	Faults *FaultRow `json:"faults,omitempty"`
	// Errors is the per-reshape error-provenance ledger of the row: the
	// measured error each stage introduced, its composition against the
	// theoretical bound composition, and the per-rank×peer attribution
	// matrix. Nil when the run measured no compression error, which keeps
	// lossless rows and old baselines unchanged.
	Errors []ErrorStageRow `json:"errors,omitempty"`
	// Tuning records the autotuner's per-stage decisions when the row
	// ran a tuned configuration (docs/TUNING.md): the winning candidate,
	// the prediction and probe evidence behind it, and the
	// predicted-vs-measured gap of the run itself. Nil for fixed-config
	// rows; its presence is also what the benchdiff tuned-vs-best-fixed
	// gate keys on.
	Tuning []TuningRow `json:"tuning,omitempty"`
}

// TuningRow is one stage of a tuned row's decision record.
type TuningRow struct {
	Label string `json:"label"`
	// Algo, Chunks, Method name the selected candidate (tune's
	// serialized vocabulary; Method/Chunks only for compressed winners).
	Algo   string `json:"algo"`
	Chunks int    `json:"chunks,omitempty"`
	Method string `json:"method,omitempty"`
	// PredictedS is the tuner's roofline prediction for the stage,
	// ProbedS its probe-run measurement (0 when not probed), MeasuredS
	// the consuming run's measured exchange time, and Gap the
	// measured/predicted ratio — the model-quality signal.
	PredictedS float64 `json:"predicted_s,omitempty"`
	ProbedS    float64 `json:"probed_s,omitempty"`
	MeasuredS  float64 `json:"measured_s,omitempty"`
	Gap        float64 `json:"gap,omitempty"`
	// Candidates is the enumerated-space size the winner beat.
	Candidates int `json:"candidates,omitempty"`
}

// ErrorStageRow is one reshape stage of a row's error-provenance ledger.
type ErrorStageRow struct {
	Label string `json:"label"`
	// Bound is the stage's configured error bound; WorstRel the measured
	// worst relative error (the contract is WorstRel ≤ Bound).
	Bound    float64 `json:"bound,omitempty"`
	WorstRel float64 `json:"worst_rel,omitempty"`
	RMS      float64 `json:"rms,omitempty"`
	MaxAbs   float64 `json:"max_abs,omitempty"`
	Values   int64   `json:"values,omitempty"`
	// CumMeasured/CumBound compose the per-stage errors across the
	// pipeline so far: prod(1+e_i)−1 over measured and bound errors.
	CumMeasured float64 `json:"cum_measured,omitempty"`
	CumBound    float64 `json:"cum_bound,omitempty"`
	// Share is the stage's fraction of the row's accumulated squared
	// error.
	Share    float64 `json:"share,omitempty"`
	Poisoned int64   `json:"poisoned,omitempty"`
	// Pairs is the (rank, peer) attribution matrix, capped at
	// MaxArtifactPairs entries; DroppedPairs counts the rest so a
	// truncated matrix never reads as a complete one.
	Pairs        []errtrack.PairStat `json:"pairs,omitempty"`
	DroppedPairs int64               `json:"dropped_pairs,omitempty"`
}

// MaxArtifactPairs bounds the attribution matrix embedded per stage in
// a bench artifact (the full matrix stays available via -errtrack).
const MaxArtifactPairs = 256

// ErrorRows extracts one cell's error-provenance ledger from a tracker
// (nil tracker, unknown cell, or a cell that measured nothing yields
// nil, keeping lossless rows byte-identical to old artifacts).
func ErrorRows(t *errtrack.Tracker, cell string) []ErrorStageRow {
	if t == nil {
		return nil
	}
	rep := t.Snapshot()
	for _, c := range rep.Cells {
		if c.Cell != cell {
			continue
		}
		stages := make(map[string]errtrack.StageReport, len(c.Stages))
		for _, s := range c.Stages {
			stages[s.Label] = s
		}
		led := errtrack.BuildLedger(c, nil)
		out := make([]ErrorStageRow, 0, len(led.Rows))
		for _, r := range led.Rows {
			s := stages[r.Label]
			row := ErrorStageRow{
				Label: r.Label, Bound: r.Bound, WorstRel: r.Measured,
				RMS: s.RMS, MaxAbs: s.MaxAbs, Values: r.Values,
				CumMeasured: r.MeasuredCum, CumBound: r.BoundCum,
				Share: r.Share, Poisoned: s.Poisoned,
				Pairs:        s.Pairs,
				DroppedPairs: s.DroppedPairs,
			}
			if len(row.Pairs) > MaxArtifactPairs {
				row.DroppedPairs += int64(len(row.Pairs) - MaxArtifactPairs)
				row.Pairs = row.Pairs[:MaxArtifactPairs]
			}
			out = append(out, row)
		}
		if len(out) == 0 {
			return nil
		}
		return out
	}
	return nil
}

// FaultRow is one row's fault/recovery ledger, populated from the
// metric registry when a run injected faults. Benchdiff uses it to flag
// rows whose numbers were earned on a degraded path (retries, repairs,
// per-peer fallback) rather than the fast path the baseline measured.
type FaultRow struct {
	Drops           int64 `json:"drops,omitempty"`
	DetectedCorrupt int64 `json:"detected_corrupt,omitempty"`
	SilentCorrupt   int64 `json:"silent_corrupt,omitempty"`
	Duplicates      int64 `json:"duplicates,omitempty"`
	Retries         int64 `json:"retries,omitempty"`
	Lost            int64 `json:"lost,omitempty"`
	Crashes         int64 `json:"crashes,omitempty"`
	Repairs         int64 `json:"repairs,omitempty"`
	FallbackPeers   int64 `json:"fallback_peers,omitempty"`
	// Crash-recovery ledger (docs/ROBUSTNESS.md): checkpoint volume paid
	// and rollbacks/restarts absorbed while earning the row's numbers.
	Checkpoints     int64   `json:"checkpoints,omitempty"`
	CheckpointBytes int64   `json:"checkpoint_bytes,omitempty"`
	Rollbacks       int64   `json:"rollbacks,omitempty"`
	Restarts        int64   `json:"restarts,omitempty"`
	MTTRSeconds     float64 `json:"mttr_seconds,omitempty"`
}

// Degraded reports whether the row left the fast path: recovery work
// beyond transparent transport retries (including rollback/respawn —
// a recovered measurement is not comparable to a fault-free baseline).
func (f *FaultRow) Degraded() bool {
	return f != nil && (f.Lost > 0 || f.Crashes > 0 || f.Repairs > 0 || f.FallbackPeers > 0 ||
		f.Rollbacks > 0 || f.Restarts > 0)
}

// FaultRowFrom extracts the fault counters of a run's metric registry;
// nil when the run saw no faults at all. The counters come from one
// consistent Snapshot, so related values (e.g. retries vs. lost) cannot
// tear against a concurrently mutating run.
func FaultRowFrom(m *obs.Metrics) *FaultRow {
	s := m.Snapshot()
	f := FaultRow{
		Drops:           s.Counters["fault/drops"],
		DetectedCorrupt: s.Counters["fault/detected_corrupt"],
		SilentCorrupt:   s.Counters["fault/silent_corrupt"],
		Duplicates:      s.Counters["fault/duplicates"],
		Retries:         s.Counters["fault/retries"],
		Lost:            s.Counters["fault/lost"],
		Crashes:         s.Counters["fault/crashes"],
		Repairs:         s.Counters["exchange/repairs"],
		FallbackPeers:   s.Counters["exchange/fallback_peers"],
		Checkpoints:     s.Counters["recovery/checkpoints"],
		CheckpointBytes: s.Counters["recovery/checkpoint_bytes"],
		Rollbacks:       s.Counters["recovery/rollbacks"],
		Restarts:        s.Counters["recovery/restarts"],
	}
	if h, ok := s.Hists["recovery/mttr_s"]; ok {
		f.MTTRSeconds = h.Sum
	}
	if f == (FaultRow{}) {
		return nil
	}
	return &f
}

// CompressionRow is the achieved compression of one labelled exchange.
type CompressionRow struct {
	Label      string  `json:"label"`
	RawBytes   int64   `json:"raw_bytes"`
	WireBytes  int64   `json:"wire_bytes"`
	Ratio      float64 `json:"ratio"`
	ErrorBound float64 `json:"error_bound,omitempty"`
}

// ModelDelta is measured vs modeled time for one reshape.
type ModelDelta struct {
	Label     string  `json:"label"`
	Measured  float64 `json:"measured_s"`
	Predicted float64 `json:"predicted_s"`
	// Ratio is Measured/Predicted (see core's model comment for where it
	// sits); growth over time means new overhead appeared.
	Ratio float64 `json:"ratio"`
}

// CompressionRows converts the metric registry's compression stats.
func CompressionRows(stats []obs.CompressionStat) []CompressionRow {
	if len(stats) == 0 {
		return nil
	}
	out := make([]CompressionRow, len(stats))
	for i, s := range stats {
		out[i] = CompressionRow{
			Label: s.Label, RawBytes: s.RawBytes, WireBytes: s.WireBytes,
			Ratio: s.Ratio(), ErrorBound: s.ErrorBound,
		}
	}
	return out
}

// WriteFile writes the artifact as indented, key-stable JSON.
func (a *Artifact) WriteFile(path string) error {
	a.Schema = ArtifactSchema
	b, err := json.MarshalIndent(a, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

// LoadArtifact reads and validates a bench artifact.
func LoadArtifact(path string) (*Artifact, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var a Artifact
	if err := json.Unmarshal(b, &a); err != nil {
		return nil, fmt.Errorf("analyze: parsing artifact %s: %w", path, err)
	}
	if a.Schema != ArtifactSchema {
		return nil, fmt.Errorf("analyze: artifact %s has schema %d, want %d", path, a.Schema, ArtifactSchema)
	}
	return &a, nil
}
