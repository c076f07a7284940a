package core

import (
	"encoding/binary"
	"fmt"
	"math"
	"strconv"

	"repro/internal/compress"
	"repro/internal/exchange"
	"repro/internal/fft"
	"repro/internal/gpu"
	"repro/internal/grid"
	"repro/internal/mpi"
	"repro/internal/obs"
	recov "repro/internal/recover"
)

// Plan is a distributed 3-D FFT plan over all ranks of a communicator.
// C selects the pipeline precision: complex128 for FP64 (required by
// BackendCompressed) or complex64 for the genuine FP32 reference.
// A plan owns cached windows and staging buffers; construct once and
// reuse. Plans are collective: all ranks must construct with identical
// arguments.
type Plan[C fft.Complex] struct {
	pipe
	n [3]int

	boxes  [5][]grid.Box // in, x-pencils, y-pencils, z-pencils, out
	orders [5]grid.Order
	// first and last are the input and output stages: the bricks 0 and 4
	// of the general configuration, or — with Options.PencilIO, x-pencil
	// input and z-pencil output — 1 and 3, which leaves only the x→y and
	// y→z redistributions.
	first, last int
	// simBoxes mirror boxes for the SimScale-enlarged grid; the time
	// plane draws message sizes and kernel volumes from these while the
	// data plane uses boxes.
	simBoxes [5][]grid.Box

	fwd [4]*reshape[C]
	bwd [4]*reshape[C]

	fftPlans [3]*fft.Plan[C]
	batch    [3]int
	// epoch counts completed reshape steps across the plan's lifetime —
	// the granularity of the crash-recovery checkpoints (Options.Recovery).
	epoch int
	// pencilScratch holds the PencilIO first-stage working copy.
	pencilScratch []C
}

// Profile breaks one transform's virtual time into phases — the
// communication share it exposes is the paper's motivating observation
// (§I: at scale, more than 95% of the runtime is the all-to-all).
type Profile struct {
	Pack     float64 // packing/reordering kernels
	Exchange float64 // all-to-all, including in-transfer (de)compression
	Unpack   float64 // unpacking kernels
	FFT      float64 // 1-D FFT kernels
	Scale    float64 // inverse normalization
}

// Total returns the profiled wall (virtual) time.
func (p Profile) Total() float64 {
	return p.Pack + p.Exchange + p.Unpack + p.FFT + p.Scale
}

// LastProfile returns the phase breakdown of the most recent Forward or
// Backward call on this rank.
func (pl *Plan[C]) LastProfile() Profile { return pl.profile }

// NewPlan collectively builds a plan for an n[0]×n[1]×n[2] transform.
func NewPlan[C fft.Complex](c *mpi.Comm, n [3]int, opts Options) *Plan[C] {
	opts = opts.withDefaults()
	p := c.Size()
	pl := &Plan[C]{pipe: pipe{c: c, opts: opts, precBits: 64}, n: n}
	var zero C
	if _, ok := any(zero).(complex64); ok {
		pl.precBits = 32 // newReshape refuses compressed choices on this pipeline
	}
	pl.stream = gpu.NewStream(opts.Device, c)
	pl.stream.SetObserver(c.Obs())

	ns := [3]int{opts.SimScale * n[0], opts.SimScale * n[1], opts.SimScale * n[2]}
	for s := 0; s < 4; s++ {
		pl.boxes[s] = stageBoxes(n, s, p)
		pl.simBoxes[s] = stageBoxes(ns, s, p)
	}
	// The output bricks are the input bricks: one table, not two.
	pl.boxes[4], pl.simBoxes[4] = pl.boxes[0], pl.simBoxes[0]
	pl.orders = [5]grid.Order{grid.Natural, grid.ForAxis(0), grid.ForAxis(1), grid.ForAxis(2), grid.Natural}

	wire := complexCodec[C](pl.elemSize())
	stage := func(s int) layout { return layout{s, pl.boxes[s], pl.simBoxes[s], pl.orders[s]} }
	pl.first, pl.last = 0, 4
	if opts.PencilIO {
		pl.first, pl.last = 1, 3
	}
	for s := 0; s < pl.last-pl.first; s++ {
		pl.fwd[s] = newReshape(&pl.pipe, wire, stage(pl.first+s), stage(pl.first+s+1), "fwd"+strconv.Itoa(s))
	}
	for s := 0; s < pl.last-pl.first; s++ {
		pl.bwd[s] = newReshape(&pl.pipe, wire, stage(pl.last-s), stage(pl.last-s-1), "bwd"+strconv.Itoa(s))
	}
	me := c.Rank()
	for axis := 0; axis < 3; axis++ {
		pl.fftPlans[axis] = fft.NewPlan[C](n[axis])
		pl.batch[axis] = pl.boxes[axis+1][me].Count() / n[axis]
	}
	if opts.PencilIO {
		pl.pencilScratch = make([]C, 0, pl.boxes[1][me].Count())
	}
	return pl
}

// InBox returns this rank's share of the input decomposition: a brick in
// the general configuration, an x-pencil with Options.PencilIO. The
// input of Forward is its data laid out with InOrder.
func (pl *Plan[C]) InBox() grid.Box { return pl.boxes[pl.first][pl.c.Rank()] }

// InOrder returns the memory layout of Forward's input (natural order in
// both configurations — an x-pencil is stride-1 in x already).
func (pl *Plan[C]) InOrder() grid.Order { return pl.orders[pl.first] }

// OutBox returns this rank's share of the output decomposition: equal to
// InBox in the general four-reshape configuration, a z-pencil with
// Options.PencilIO.
func (pl *Plan[C]) OutBox() grid.Box { return pl.boxes[pl.last][pl.c.Rank()] }

// OutOrder returns the memory layout of Forward's output (z-fastest for
// the z-pencil output of the PencilIO configuration).
func (pl *Plan[C]) OutOrder() grid.Order { return pl.orders[pl.last] }

// Method returns the compression method the reshapes use (None for the
// uncompressed backends).
func (pl *Plan[C]) Method() compress.Method {
	if pl.opts.Backend.compressed() {
		return pl.opts.Method
	}
	return compress.None{}
}

// Forward computes the forward 3-D FFT of in (this rank's InBox data,
// InOrder layout; unscaled output in OutBox/OutOrder layout). in is not
// modified. The returned buffer is owned by the plan and valid until
// the next Forward/Backward call.
func (pl *Plan[C]) Forward(in []C) []C {
	if len(in) != pl.InBox().Count() {
		panic("core: Forward input length does not match InBox")
	}
	return pl.run(in, fft.Forward)
}

// Backward computes the inverse 3-D FFT (scaled by 1/(n0·n1·n2)), taking
// OutBox data and returning InBox data.
func (pl *Plan[C]) Backward(in []C) []C {
	if len(in) != pl.OutBox().Count() {
		panic("core: Backward input length does not match OutBox")
	}
	out := pl.run(in, fft.Inverse)
	scale := 1 / float64(pl.n[0]*pl.n[1]*pl.n[2])
	s := C(complex(scale, 0))
	simCount := pl.simBoxes[pl.first][pl.c.Rank()].Count()
	pl.kernel(obs.PhaseScale, &pl.profile.Scale, 0, pl.opts.Device.CopyCost(simCount*pl.elemSize()), func() {
		for i := range out {
			out[i] *= s
		}
	})
	return out
}

// run drives the pipeline through its reshapes, each followed by its FFT
// stage (see step). Pencil-shaped input (Options.PencilIO) is ready for
// its first FFT stage before any reshape; that stage must not modify the
// caller's buffer, so it transforms a scratch copy.
func (pl *Plan[C]) run(in []C, sign int) []C {
	pl.profile = Profile{}
	reshapes, inStage := pl.fwd, pl.first
	if sign == fft.Inverse {
		reshapes, inStage = pl.bwd, pl.last
	}
	data := in
	if pl.opts.PencilIO {
		data = append(pl.pencilScratch[:0], in...)
		pl.fftStage(data, inStage-1, sign)
	}
	for _, r := range reshapes {
		if r != nil {
			data = pl.step(r, data, sign)
		}
	}
	return data
}

// step runs one recovery epoch of the pipeline: the reshape, the FFT
// stage that follows it when it lands on pencils (stage s+1 holds the
// pencils stride-1 along axis s; stages 0 and 4 are bricks), and — when
// a recovery runtime is attached — the epoch checkpoint. On a resumed
// attempt, epochs the committed checkpoint covers are skipped entirely
// (no communication, no kernels: every rank skips the same epochs, so
// the collectives stay matched); the committed epoch itself
// re-materializes its output and healing ledgers from the snapshot
// instead of executing.
func (pl *Plan[C]) step(r *reshape[C], data []C, sign int) []C {
	pl.epoch++
	rk := pl.opts.Recovery
	if rk != nil {
		if resume := rk.Resume(); pl.epoch <= resume {
			if pl.epoch < resume {
				return data // effects subsumed by the committed snapshot
			}
			if rk.Migrating() {
				return pl.migrateSnapshot(r)
			}
			snap, err := rk.Restore()
			if err != nil {
				panic(fmt.Sprintf("core: rank %d cannot restore epoch %d: %v", pl.c.Rank(), pl.epoch, err))
			}
			return pl.restoreSnapshot(r, snap)
		}
	}
	data = r.execute(data)
	if axis := r.toStage - 1; axis >= 0 && axis < 3 {
		pl.fftStage(data, axis, sign)
	}
	if rk != nil {
		rk.Checkpoint(pl.epoch, pl.snapshot(data))
	}
	return data
}

// ledgers returns the plan's healing-capable exchanges in a fixed,
// rank-independent order — the ledger sections of a snapshot.
func (pl *Plan[C]) ledgers() []ledgered {
	var out []ledgered
	for _, rs := range [2][4]*reshape[C]{pl.fwd, pl.bwd} {
		for _, r := range rs {
			if r != nil && r.x.ledger != nil {
				out = append(out, r.x.ledger)
			}
		}
	}
	return out
}

// snapshot serializes this rank's recovery state after one completed
// epoch: the reshape's output partition followed by every exchange's
// healing ledger. The store CRC-frames the whole snapshot; this layout
// only needs lengths.
func (pl *Plan[C]) snapshot(data []C) []byte {
	body := complexToBytes(data)
	leds := pl.ledgers()
	size := 8 + len(body)
	states := make([][]byte, len(leds))
	for i, l := range leds {
		states[i] = l.LedgerState()
		size += 4 + len(states[i])
	}
	buf := binary.LittleEndian.AppendUint32(make([]byte, 0, size), uint32(len(body)))
	buf = append(buf, body...)
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(states)))
	for _, st := range states {
		buf = binary.LittleEndian.AppendUint32(buf, uint32(len(st)))
		buf = append(buf, st...)
	}
	return buf
}

// restoreSnapshot installs a committed snapshot: the partition data
// lands in the reshape's output buffer (the same buffer execute would
// have returned) and every healing ledger rolls back to its
// checkpointed decisions.
func (pl *Plan[C]) restoreSnapshot(r *reshape[C], snap []byte) []C {
	fail := func(msg string) {
		panic(fmt.Sprintf("core: rank %d epoch %d: %s", pl.c.Rank(), pl.epoch, msg))
	}
	body, states, err := snapshotSections(snap)
	if err != nil {
		fail(err.Error())
	}
	if want := len(r.outBuf) * pl.elemSize(); len(body) != want {
		fail(fmt.Sprintf("snapshot holds %d data bytes, reshape needs %d", len(body), want))
	}
	bytesToComplex(body, r.outBuf)
	leds := pl.ledgers()
	if len(states) != len(leds) {
		fail(fmt.Sprintf("snapshot holds %d ledgers, plan has %d", len(states), len(leds)))
	}
	for i, l := range leds {
		if err := l.RestoreLedger(states[i]); err != nil {
			fail(err.Error())
		}
	}
	return r.outBuf
}

// snapshotSections splits a serialized snapshot into its data body and
// ledger sections without interpreting them.
func snapshotSections(snap []byte) (body []byte, leds [][]byte, err error) {
	if len(snap) < 8 {
		return nil, nil, fmt.Errorf("snapshot truncated")
	}
	n := int(binary.LittleEndian.Uint32(snap))
	pos := 4
	if n < 0 || pos+n+4 > len(snap) {
		return nil, nil, fmt.Errorf("snapshot data section overruns snapshot")
	}
	body = snap[pos : pos+n]
	pos += n
	cnt := int(binary.LittleEndian.Uint32(snap[pos:]))
	pos += 4
	for i := 0; i < cnt; i++ {
		if pos+4 > len(snap) {
			return nil, nil, fmt.Errorf("snapshot truncated in ledger section")
		}
		ln := int(binary.LittleEndian.Uint32(snap[pos:]))
		pos += 4
		if ln < 0 || pos+ln > len(snap) {
			return nil, nil, fmt.Errorf("ledger overruns snapshot")
		}
		leds = append(leds, snap[pos:pos+ln])
		pos += ln
	}
	return body, leds, nil
}

// stageBoxes returns a pipeline stage's decomposition of an n grid over
// p ranks: stages 0 and 4 are the brick input/output, stages 1..3 the
// axis pencils.
func stageBoxes(n [3]int, stage, p int) []grid.Box {
	if stage == 0 || stage == 4 {
		return grid.Bricks(n, grid.Factor3(p))
	}
	return grid.Pencils(n, stage-1, p)
}

// migrateSnapshot re-materializes the resume epoch on a shrunken
// membership (docs/ROBUSTNESS.md): the committed snapshots were written
// by the previous, larger membership in its own decomposition, so each
// survivor fetches every old rank's snapshot that overlaps its new
// partition and re-cuts the pencil data through the overlap. Stage
// memory orders depend only on the stage axis, never on the rank
// count, so the overlap copy is exact — for lossless backends the
// migrated state is bit-identical to what a fresh run at the shrunken
// size would have committed. Healing ledgers are restored from this
// rank's own previous snapshot with the per-peer records remapped onto
// the survivor ranks.
func (pl *Plan[C]) migrateSnapshot(r *reshape[C]) []C {
	rk := pl.opts.Recovery
	fail := func(msg string) {
		panic(fmt.Sprintf("core: rank %d epoch %d migration: %s", pl.c.Rank(), pl.epoch, msg))
	}
	prevP := rk.PrevSize()
	// The layout the previous membership checkpointed under.
	oldBoxes := stageBoxes(pl.n, r.toStage, prevP)
	elem := pl.elemSize()
	var migrated int64
	var scratch, tile []C
	for old := 0; old < prevP; old++ {
		ov := grid.Intersect(oldBoxes[old], r.toBox)
		if ov.Empty() {
			continue
		}
		snap, err := rk.RestorePeer(old)
		if err != nil {
			fail(fmt.Sprintf("old rank %d: %v", old, err))
		}
		body, _, serr := snapshotSections(snap)
		if serr != nil {
			fail(fmt.Sprintf("old rank %d: %v", old, serr))
		}
		if want := oldBoxes[old].Count() * elem; len(body) != want {
			fail(fmt.Sprintf("old rank %d snapshot holds %d data bytes, its box needs %d", old, len(body), want))
		}
		if cap(scratch) < oldBoxes[old].Count() {
			scratch = make([]C, oldBoxes[old].Count())
		}
		data := scratch[:oldBoxes[old].Count()]
		bytesToComplex(body, data)
		cnt := ov.Count()
		if cap(tile) < cnt {
			tile = make([]C, cnt)
		}
		grid.Pack(data, oldBoxes[old], r.toOrder, ov, r.toOrder, tile[:cnt])
		grid.Unpack(tile[:cnt], ov, r.outBuf, r.toBox, r.toOrder)
		migrated += int64(cnt * elem)
	}
	own, err := rk.RestorePeer(rk.PrevRank())
	if err != nil {
		fail(fmt.Sprintf("own old rank %d: %v", rk.PrevRank(), err))
	}
	_, oldLeds, serr := snapshotSections(own)
	if serr != nil {
		fail(fmt.Sprintf("own old rank %d: %v", rk.PrevRank(), serr))
	}
	leds := pl.ledgers()
	if len(oldLeds) != len(leds) {
		fail(fmt.Sprintf("old snapshot holds %d ledgers, plan has %d", len(oldLeds), len(leds)))
	}
	for i, l := range leds {
		remapped, rerr := exchange.RemapLedgerState(oldLeds[i], rk.OldToNew(), pl.c.Size())
		if rerr != nil {
			fail(fmt.Sprintf("ledger %d: %v", i, rerr))
		}
		if err := l.RestoreLedger(remapped); err != nil {
			fail(fmt.Sprintf("ledger %d: %v", i, err))
		}
	}
	pl.c.Obs().Add(recov.MetricMigratedBytes, migrated)
	return r.outBuf
}

// fftStage runs the batched 1-D FFTs of one direction on the GPU
// timeline (data is pencil-resident with the transform axis stride-1).
// In scaled-volume mode the kernel cost is that of the simulated pencil
// (SimScale·n-point transforms over this rank's simulated batch).
func (pl *Plan[C]) fftStage(data []C, axis, sign int) {
	s := pl.opts.SimScale
	simLen := s * pl.n[axis]
	simBatch := pl.simBoxes[axis+1][pl.c.Rank()].Count() / simLen
	pl.kernel(obs.PhaseFFT, &pl.profile.FFT, 0, pl.opts.Device.FFTCost(simLen, simBatch, pl.precBits), func() {
		pl.fftPlans[axis].Batch(data, pl.batch[axis], sign)
	})
}

// elemSize is the bytes of one pipeline element: two precBits-wide parts.
func (pl *Plan[C]) elemSize() int { return 2 * pl.precBits / 8 }

// complexToFloats flattens complex values into interleaved re/im float64s.
func complexToFloats[C fft.Complex](src []C, dst []float64) {
	switch s := any(src).(type) {
	case []complex64:
		for i, v := range s {
			dst[2*i] = float64(real(v))
			dst[2*i+1] = float64(imag(v))
		}
	case []complex128:
		for i, v := range s {
			dst[2*i] = real(v)
			dst[2*i+1] = imag(v)
		}
	}
}

// floatsToComplex is the inverse of complexToFloats.
func floatsToComplex[C fft.Complex](src []float64, dst []C) {
	switch d := any(dst).(type) {
	case []complex64:
		for i := range d {
			d[i] = complex(float32(src[2*i]), float32(src[2*i+1]))
		}
	case []complex128:
		for i := range d {
			d[i] = complex(src[2*i], src[2*i+1])
		}
	}
}

// complexToBytes serializes complex values little-endian (8 bytes per
// complex64 element, 16 per complex128).
func complexToBytes[C fft.Complex](src []C) []byte {
	switch s := any(src).(type) {
	case []complex64:
		out := make([]byte, 8*len(s))
		for i, v := range s {
			binary.LittleEndian.PutUint32(out[8*i:], math.Float32bits(real(v)))
			binary.LittleEndian.PutUint32(out[8*i+4:], math.Float32bits(imag(v)))
		}
		return out
	case []complex128:
		out := make([]byte, 16*len(s))
		for i, v := range s {
			binary.LittleEndian.PutUint64(out[16*i:], math.Float64bits(real(v)))
			binary.LittleEndian.PutUint64(out[16*i+8:], math.Float64bits(imag(v)))
		}
		return out
	}
	panic("core: unsupported complex type")
}

// bytesToComplex deserializes complexToBytes output.
func bytesToComplex[C fft.Complex](b []byte, dst []C) {
	switch d := any(dst).(type) {
	case []complex64:
		for i := range d {
			re := math.Float32frombits(binary.LittleEndian.Uint32(b[8*i:]))
			im := math.Float32frombits(binary.LittleEndian.Uint32(b[8*i+4:]))
			d[i] = complex(re, im)
		}
	case []complex128:
		for i := range d {
			re := math.Float64frombits(binary.LittleEndian.Uint64(b[16*i:]))
			im := math.Float64frombits(binary.LittleEndian.Uint64(b[16*i+8:]))
			d[i] = complex(re, im)
		}
	}
}
