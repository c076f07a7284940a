// Package core implements the paper's approximate distributed 3-D FFT
// (Algorithm 1) in the architecture of heFFTe: input bricks are reshaped
// to x-pencils, transformed, reshaped to y-pencils, transformed,
// reshaped to z-pencils, transformed, and reshaped back to bricks
// (Fig. 1 — the general four-reshape case). Each reshape runs through a
// pluggable all-to-all backend: the classical MPI_Alltoallv baseline,
// the one-sided OSC ring of Algorithm 3, or the compressed OSC exchange
// whose lossy compression realizes the accuracy/speed trade-off, with
// the error controlled by a user tolerance (§III).
package core

import (
	"repro/internal/compress"
	"repro/internal/exchange"
	"repro/internal/gpu"
	recov "repro/internal/recover"
)

// Backend selects the all-to-all implementation used by the reshapes.
type Backend int

const (
	// BackendAlltoallv is the classical two-sided MPI_Alltoallv (the
	// solid-line references of Fig. 4).
	BackendAlltoallv Backend = iota
	// BackendOSC is the one-sided ring of Algorithm 3, uncompressed.
	BackendOSC
	// BackendCompressed is the one-sided ring with lossy compression
	// pipelined into the transfer (the paper's contribution). FP64
	// pipelines only.
	BackendCompressed
	// BackendCompressedTwoSided applies the same compression over the
	// classical two-sided all-to-all (no pipeline) — the ablation that
	// separates the compression gain from the one-sided transport gain.
	// FP64 pipelines only.
	BackendCompressedTwoSided
	// BackendBruck is the log-round aggregated Bruck algorithm. It
	// requires uniform block sizes, so the reshape pads every pairwise
	// payload to the global maximum overlap — the small-message regime
	// trade (far fewer messages for extra volume) the tuner weighs
	// against the direct algorithms.
	BackendBruck
)

// BackendRow is one row of the backend table: everything the tree
// knows about a transport apart from how to build it, which is
// reshape.newTransport's switch.
type BackendRow struct {
	Backend Backend
	// Name is the display name (Backend.String, heffte's -backend).
	Name string
	// Plan is the name a tune plan's "algo" field gives the backend; set
	// only on Tunable rows.
	Plan string
	// Bench is the bandwidth harness's algorithm for the backend
	// (exchange.Algos), or "" if the harness has none.
	Bench string
	// Compressed backends ship compressed float64 values, so they need a
	// Method and the FP64 pipeline.
	Compressed bool
	// OneSided backends pay the RMA occupancy per message in the
	// roofline, the others the two-sided protocol's.
	OneSided bool
	// Tunable backends are candidates of the autotuner.
	Tunable bool
}

// Backends is the backend table, one row per Backend. The row index is
// the autotuner's tie-break: simpler transports come first and win ties.
var Backends = []BackendRow{
	{Backend: BackendAlltoallv, Name: "alltoallv", Plan: "twosided", Bench: exchange.AlgoLinear, Tunable: true},
	{Backend: BackendBruck, Name: "bruck", Plan: "bruck", Bench: exchange.AlgoBruck, Tunable: true},
	{Backend: BackendOSC, Name: "osc", Plan: "osc", Bench: exchange.AlgoOSC, OneSided: true, Tunable: true},
	{Backend: BackendCompressed, Name: "osc+compression", Plan: "compressed-osc", Bench: exchange.AlgoOSCComp,
		Compressed: true, OneSided: true, Tunable: true},
	{Backend: BackendCompressedTwoSided, Name: "alltoallv+compression", Compressed: true},
}

// Row returns b's row of the backend table; a value outside the table
// gets a row named "unknown" with every flag off.
func (b Backend) Row() BackendRow {
	for _, row := range Backends {
		if row.Backend == b {
			return row
		}
	}
	return BackendRow{Backend: b, Name: "unknown"}
}

func (b Backend) String() string { return b.Row().Name }

// compressed reports whether the backend ships compressed float64 values
// (and so needs a Method and the FP64 pipeline).
func (b Backend) compressed() bool { return b.Row().Compressed }

// ExchangeChoice is one reshape's resolved exchange configuration — the
// unit of the autotuner's decisions. Method must be non-nil for the
// compressed backends and is ignored by the lossless ones; Chunks == 0
// falls back to Options.Chunks.
type ExchangeChoice struct {
	Backend Backend
	Chunks  int
	Method  compress.Method
}

// TunePlan supplies per-reshape exchange choices to a plan (the
// consumer side of internal/tune's serialized plans; tune.Cell
// implements it). Choice is called once per reshape at plan
// construction with the reshape's label (fwd0..3 / bwd0..3, or the
// fwd0..1 / bwd0..1 pair with PencilIO) and must return identical
// results on every rank — plans are collective. Labels it does not
// cover (ok == false) keep the fixed Options configuration.
type TunePlan interface {
	Choice(label string) (ExchangeChoice, bool)
}

// Options configures a Plan.
type Options struct {
	// Backend selects the reshape all-to-all implementation.
	Backend Backend
	// Method is the compression method for BackendCompressed. If nil,
	// it is derived from Tolerance via compress.FromTolerance.
	Method compress.Method
	// Tolerance is the user error tolerance e_tol of Algorithm 1; used
	// only when Method is nil.
	Tolerance float64
	// Chunks is the §V-B pipeline depth (compression kernels per
	// exchange). 0 selects the default of 8.
	Chunks int
	// DisablePipeline turns off the §V-B overlap of compression kernels
	// with the puts of BackendCompressed (the kernels are synchronized
	// before any put is issued) — the ablation baseline. The zero value
	// keeps the pipeline on.
	DisablePipeline bool
	// Device is the GPU model; the zero value selects gpu.V100().
	Device gpu.Device
	// PencilIO selects the reduced-reshape configuration the paper's
	// introduction describes: the caller provides input already shaped
	// as x-pencils (stride-1 in x) and accepts output left as z-pencils
	// (stride-1 in z), cutting the reshape count from four to two.
	PencilIO bool
	// Tune, when non-nil, overrides Backend/Method/Chunks per reshape
	// with the autotuner's selected winners (docs/TUNING.md). A reshape
	// whose label the plan covers is constructed exactly as if its choice
	// had been passed as fixed Options — virtual times and outputs are
	// bit-identical to that fixed-config run. Labels not covered keep the
	// fixed configuration above.
	Tune TunePlan
	// SimScale runs the time plane at a problem SimScale× larger per
	// dimension than the data plane: transfers, kernels, and the flop
	// metric are charged as if each axis had SimScale·n points, while
	// the real data (and hence the accuracy results) stays at n. This
	// lets the harness reproduce the paper's 1024³ performance regime
	// with laptop-sized arrays (see DESIGN.md). 0 or 1 disables scaling.
	SimScale int
	// Recovery attaches the crash-recovery runtime of this attempt (see
	// internal/recover and docs/ROBUSTNESS.md): the plan checkpoints its
	// pencil partition and healing ledgers after every completed reshape
	// and, on a resumed attempt, skips the epochs the committed
	// checkpoint already covers. nil (the default) disables epoch
	// checkpointing entirely — the plan takes the exact pre-recovery
	// code paths and its virtual times stay byte-identical.
	Recovery *recov.Rank
}

func (o Options) withDefaults() Options {
	if o.Chunks == 0 {
		o.Chunks = 8
	}
	if o.SimScale == 0 {
		o.SimScale = 1
	}
	if o.Device == (gpu.Device{}) {
		o.Device = gpu.V100()
	}
	if o.Backend.compressed() && o.Method == nil {
		o.Method = compress.FromTolerance(o.Tolerance)
	}
	return o
}

// choice resolves the exchange of the reshape labelled label: the fixed
// Options, unless the tune plan covers the label (a tuned choice with
// Chunks == 0 keeps o.Chunks). o must have its defaults applied.
func (o Options) choice(label string) ExchangeChoice {
	if o.Tune != nil {
		if ch, ok := o.Tune.Choice(label); ok {
			if ch.Chunks == 0 {
				ch.Chunks = o.Chunks
			}
			return ch
		}
	}
	return ExchangeChoice{Backend: o.Backend, Chunks: o.Chunks, Method: o.Method}
}
