package core

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math"
	"slices"
	"testing"

	"repro/internal/compress"
	"repro/internal/exchange"
	"repro/internal/grid"
	"repro/internal/mem"
	"repro/internal/mpi"
	"repro/internal/netsim"
)

// A reshape packs each peer straight into the memory its exchange
// offers and unpacks straight from the bytes the exchange hands back,
// through mem views. These tests pin that wire to the
// explicit little-endian encoders the reshapes used to run as a separate
// pass (kept here as the reference), and hold every backend's reshape
// output, with and without reliable-mode framing, to the field itself.
// Under -race, checkptr also checks that no view straddles allocations;
// mem.View checks the alignment itself (checkptr skips pointer-free
// types).

// refEncode is the reference wire encoding of src: complex values as
// little-endian re/im pairs of their own width, real values as
// little-endian float64s, or float32s on a 4-byte wire.
func refEncode[E mem.Word](src []E, size int) []byte {
	var b []byte
	switch s := any(src).(type) {
	case []complex128:
		for _, v := range s {
			b = binary.LittleEndian.AppendUint64(b, math.Float64bits(real(v)))
			b = binary.LittleEndian.AppendUint64(b, math.Float64bits(imag(v)))
		}
	case []complex64:
		for _, v := range s {
			b = binary.LittleEndian.AppendUint32(b, math.Float32bits(real(v)))
			b = binary.LittleEndian.AppendUint32(b, math.Float32bits(imag(v)))
		}
	case []float64:
		for _, v := range s {
			if size == 4 {
				b = binary.LittleEndian.AppendUint32(b, math.Float32bits(float32(v)))
			} else {
				b = binary.LittleEndian.AppendUint64(b, math.Float64bits(v))
			}
		}
	}
	return b
}

// fieldAt is the deterministic test field at c, as an element of type E
// (the real part for real elements).
func fieldAt[E mem.Word](c [3]int) E {
	v := FieldValue(7, c[0], c[1], c[2])
	var e E
	switch any(e).(type) {
	case complex64:
		return any(complex64(v)).(E)
	case complex128:
		return any(v).(E)
	case float64:
		return any(real(v)).(E)
	}
	panic("fieldAt: unsupported element type")
}

// fieldIn returns the field over sub with its points in order o (o[0]
// fastest), counted out point by point — the reference for both a
// packed payload (o the receiver's layout) and a laid-out box.
func fieldIn[E mem.Word](sub grid.Box, o grid.Order) []E {
	var out []E
	var c [3]int
	for c[o[2]] = sub.Lo[o[2]]; c[o[2]] < sub.Hi[o[2]]; c[o[2]]++ {
		for c[o[1]] = sub.Lo[o[1]]; c[o[1]] < sub.Hi[o[1]]; c[o[1]]++ {
			for c[o[0]] = sub.Lo[o[0]]; c[o[0]] < sub.Hi[o[0]]; c[o[0]]++ {
				out = append(out, fieldAt[E](c))
			}
		}
	}
	return out
}

// wireTap records copies of every payload a reshape's exchange takes
// from it and hands back to it, as bytes.
type wireTap struct {
	exchange.Transport
	sent, recv [][]byte
}

func (w *wireTap) ExchangeWith(io exchange.Payloads) {
	w.Transport.ExchangeWith(&payloadTap{Payloads: io, w: w})
}

// payloadTap is a reshape's exchange.Payloads, recording what passes
// through it into w.
type payloadTap struct {
	exchange.Payloads
	w *wireTap
}

func (pt *payloadTap) Send(dst int, buf []byte) []byte {
	b := pt.Payloads.Send(dst, buf)
	pt.w.sent[dst] = slices.Clone(b)
	return b
}

func (pt *payloadTap) Received(src int, data []byte) {
	pt.w.recv[src] = slices.Clone(data)
	pt.Payloads.Received(src, data)
}

func tap[E mem.Word](r *reshape[E]) *wireTap {
	p := r.pp.c.Size()
	w := &wireTap{Transport: r.x, sent: make([][]byte, p), recv: make([][]byte, p)}
	r.x = w
	return w
}

// checkWire runs reshape r once on the field and compares every payload
// its transport was handed and returned with the reference encoding of
// that peer's overlap, in the receiver's layout.
func checkWire[E mem.Word](t *testing.T, name string, r *reshape[E]) {
	w := tap(r)
	out := r.execute(fieldIn[E](r.fromBox, r.fromOrder))
	want := func(sub grid.Box) []byte { return refEncode(fieldIn[E](sub, r.toOrder), r.wire.size) }
	me := r.pp.c.Rank()
	for _, tr := range r.plan.Send {
		if got := w.sent[tr.Rank]; !bytes.Equal(got, want(tr.Sub)) {
			t.Errorf("%s: rank %d's payload for rank %d differs from the reference encoding", name, me, tr.Rank)
		}
	}
	for _, tr := range r.plan.Recv {
		// Bruck delivers padded blocks: only the overlap's bytes count.
		ref := want(tr.Sub)
		if got := w.recv[tr.Rank]; len(got) < len(ref) || !bytes.Equal(got[:len(ref)], ref) {
			t.Errorf("%s: rank %d's payload from rank %d differs from the reference encoding", name, me, tr.Rank)
		}
	}
	exact := fieldIn[E](r.toBox, r.toOrder)
	if f, ok := any(exact).([]float64); ok && r.wire.size == 4 {
		for i, v := range f {
			f[i] = float64(float32(v))
		}
	}
	if !slices.Equal(out, exact) {
		t.Errorf("%s: rank %d's reshape output is not the field through its wire", name, me)
	}
}

// TestWireMatchesReferenceEncoding pins the bytes every exchange takes
// from a reshape and hands back to it to the reference encoding, for
// each element format the reshapes ship: complex128 and complex64
// pencils, and the real bricks of r2c at FP64 (8-byte wire) and FP32
// (narrowed to 4 bytes). The compressed backends' codec columns take
// the same bytes as float64 values, checked here through the lossless
// None method.
func TestWireMatchesReferenceEncoding(t *testing.T) {
	n := [3]int{8, 12, 10}
	for _, row := range Backends {
		opts := Options{Backend: row.Backend}
		if row.Compressed {
			opts.Method = compress.None{}
		}
		mpi.Run(machine(12), func(c *mpi.Comm) {
			name := row.Name
			// fwd[1] is x-pencils to y-pencils: a transposing pack.
			checkWire(t, name+"/complex128", NewPlan[complex128](c, n, opts).fwd[1])
			checkWire(t, name+"/realFP64", NewPlanR2C[complex128](c, n, opts).fwd)
			if !row.Compressed { // the compressed backends need the FP64 pipeline
				checkWire(t, name+"/complex64", NewPlan[complex64](c, n, opts).fwd[1])
				checkWire(t, name+"/realFP32", NewPlanR2C[complex64](c, n, opts).fwd)
			}
		})
	}
}

// TestReshapeRoundTripBitIdentical drives the field through all four
// forward reshapes and all four backward ones (bricks → x → y → z
// pencils → bricks, and back) on every backend, with no fault plan and
// under a fault plan that exercises reliable-mode framing (drops healed
// by retries, duplicates, latency spikes, silently corrupted puts
// repaired by the healing exchanges). Every reshape's output must be the
// field laid out in its target box and order, bit for bit. Without
// faults the compressed backends run the FP32 cast and the reference
// casts too; under faults they run the lossless None method, because
// the healer re-fetches a damaged block over the lossless two-sided path
// and a lossy method's output would mix cast and exact values by design.
func TestReshapeRoundTripBitIdentical(t *testing.T) {
	n := [3]int{8, 12, 10}
	faults := &netsim.FaultPlan{Seed: 5, DropProb: 0.05, DuplicateProb: 0.05,
		SilentCorruptProb: 0.05, LatencySpikeProb: 0.1, LatencySpike: 1e-5,
		Retry: netsim.RetryPolicy{MaxRetries: 60, RTO: 1e-6, Backoff: 1.5}}
	for _, row := range Backends {
		backend := row.Backend
		for _, fp := range []*netsim.FaultPlan{nil, faults} {
			name := fmt.Sprintf("%s/faults=%t", backend, fp != nil)
			opts := Options{Backend: backend}
			cast := backend.compressed() && fp == nil
			switch {
			case cast:
				opts.Method = compress.Cast32{}
			case backend.compressed():
				opts.Method = compress.None{}
			}
			cfg := machine(12)
			cfg.Faults = fp
			res, err := mpi.RunChecked(cfg, func(c *mpi.Comm) {
				pl := NewPlan[complex128](c, n, opts)
				data := fieldIn[complex128](pl.InBox(), pl.InOrder())
				for _, r := range append(pl.fwd[:], pl.bwd[:]...) {
					data = r.execute(data)
					want := fieldIn[complex128](r.toBox, r.toOrder)
					if cast {
						for i, v := range want {
							want[i] = complex(float64(float32(real(v))), float64(float32(imag(v))))
						}
					}
					if !slices.Equal(data, want) {
						t.Errorf("%s: rank %d's %s output differs from the reference", name, c.Rank(), r.label)
					}
				}
			})
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			if f := res.Stats.Faults; fp != nil && (f.Retries == 0 || f.Duplicates == 0) {
				t.Errorf("%s: the fault plan injected %d retries and %d duplicates, want both", name, f.Retries, f.Duplicates)
			}
		}
	}
}
