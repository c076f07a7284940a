package exchange

import (
	"encoding/binary"
	"fmt"
	"math"

	"repro/internal/compress"
	"repro/internal/gpu"
	"repro/internal/obs"
	"repro/internal/obs/errtrack"
)

// The codec column's wire format: a slot is a 4-byte little-endian
// compressed length followed by the compressed bytes, so variable-rate
// methods work at fixed window offsets. A raw column has no slots: a
// payload is its own bytes.

// encodeSlot compresses vals into slot behind its length header and
// returns the slot's used bytes.
func encodeSlot(m compress.Method, slot []byte, vals []float64) []byte {
	clen := m.Compress(slot[4:], vals)
	binary.LittleEndian.PutUint32(slot, uint32(clen))
	return slot[:4+clen]
}

// slotWire is the one scaled wire-size rule of the compressed
// transports: a slot's 4-byte length header plus its clen compressed
// bytes, scaled from the cv real values to sim simulated ones at the
// same compression rate. The header is not scaled; sim == cv charges
// exactly 4 + clen.
func slotWire(clen, cv, sim int) int { return 4 + clen*sim/cv }

// column is an algorithm body's codec column: the method it encodes
// payloads with (nil: the raw column), the stream its kernels run on,
// and the achieved-compression and per-slot error attribution it
// reports under its label: raw and wire bytes with the error-bound
// gauge every epoch, and — with an event log attached — each slot's
// round-trip error statistics plus the epoch's worst error.
type column struct {
	method compress.Method
	stream *gpu.Stream
	label  string
	// Precomputed metric names of the label (SetLabel).
	metricRaw, metricWire, metricErr, metricAchieved string
	metricTrkMaxRel, metricTrkRMS, metricTrkVals     string
	metricOverlap                                    string // the ring's overlap efficiency
	// scratch holds decoded values while measuring the achieved error;
	// allocated only when an event log is attached.
	scratch  []float64
	worst    float64
	measured bool
}

func newColumn(col Codec) column {
	a := column{method: col.Method, stream: col.Stream}
	if col.Method != nil {
		a.SetLabel(col.Label)
	}
	return a
}

// slotBytes returns the most bytes a payload of n raw bytes takes on the
// wire: n itself on the raw column; on a codec column, the slot that
// carries its n/8 values, or nothing for an empty payload.
func (a *column) slotBytes(n int) int {
	if a.method == nil || n == 0 {
		return n
	}
	return 4 + a.method.MaxCompressedLen(n/8)
}

// SetLabel names the codec column in the metric registry: the achieved
// compression is reported as compress/<label>/{raw,wire}_bytes plus the
// error-bound gauge. The FFT plan labels its reshapes fwd0..3 / bwd0..3.
func (a *column) SetLabel(label string) {
	a.label = label
	a.metricRaw, a.metricWire, a.metricErr = obs.CompressMetricNames(label)
	a.metricAchieved = "compress/" + label + "/achieved_error"
	a.metricTrkMaxRel, a.metricTrkRMS, a.metricTrkVals = obs.ErrtrackMetricNames(label)
	a.metricOverlap = "exchange/" + label + "/overlap_efficiency"
}

// volume records one epoch's raw and wire bytes and the error bound.
func (a *column) volume(rk *obs.Rank, raw, wire int64) {
	rk.Add(a.metricRaw, raw)
	rk.Add(a.metricWire, wire)
	rk.Set(a.metricErr, a.method.ErrorBound())
}

// slot round-trips the compressed slot bound for peer on the host and
// records its block-level error statistics against the original values
// (wall-clock work only, never virtual time): the worst relative error,
// the worst absolute error, and the squared-error sum — the per-peer
// attribution the errtrack layer aggregates. Originals below the
// method's MinNormal (or FP64's, whichever is larger) are scored by
// absolute error only: the method's relative bound only covers its
// normal range, and a relative error against a subnormal or underflowed
// denominator explodes without carrying information.
func (a *column) slot(rk *obs.Rank, now float64, peer int, slot []byte, vals []float64) {
	if len(vals) == 0 {
		return
	}
	if cap(a.scratch) < len(vals) {
		a.scratch = make([]float64, len(vals))
	}
	dst := a.scratch[:len(vals)]
	if decodeSlot(a.method, dst, slot) != nil {
		return // unreachable for a slot we just produced
	}
	relFloor := max(a.method.MinNormal(), 2.2250738585072014e-308) // FP64's smallest normal
	st := errtrack.Stat{N: int64(len(vals))}
	for i, v := range vals {
		d := math.Abs(dst[i] - v)
		st.MaxAbs = max(st.MaxAbs, d)
		st.SumSq += d * d
		if av := math.Abs(v); av >= relFloor {
			st.MaxRel = max(st.MaxRel, d/av)
		}
	}
	a.measured = true
	a.worst = max(a.worst, st.MaxRel)
	rk.Observe(a.metricTrkMaxRel, st.MaxRel)
	rk.Observe(a.metricTrkRMS, st.RMS())
	rk.Add(a.metricTrkVals, st.N)
	rk.Emit(errtrack.AttrEvent(now, a.label, peer, a.method.ErrorBound(), st))
}

// achieved closes an epoch's attribution: the worst error its slots
// measured, if any, and a reset for the next epoch.
func (a *column) achieved(rk *obs.Rank, now float64) {
	if a.measured {
		rk.Observe(a.metricAchieved, a.worst)
		rk.Emit(obs.Event{T: now, Kind: obs.EventError, Label: a.label, Peer: -1, Value: a.worst, Bound: a.method.ErrorBound()})
	}
	a.worst, a.measured = 0, false
}

// decodeSlot validates and decodes one window slot (4-byte compressed
// length + payload) into dst. Both the header and the payload are
// untrusted: an out-of-range length or a structurally corrupt stream
// yields an error, never a panic or an out-of-bounds read.
func decodeSlot(m compress.Method, dst []float64, slot []byte) error {
	if len(slot) < 4 {
		return fmt.Errorf("exchange: slot of %d bytes lacks the length header", len(slot))
	}
	clen := binary.LittleEndian.Uint32(slot)
	if uint64(clen) > uint64(len(slot)-4) {
		return fmt.Errorf("exchange: slot declares %d compressed bytes, holds %d", clen, len(slot)-4)
	}
	_, err := m.DecompressChecked(dst, slot[4:4+clen])
	return err
}
