package exchange

import (
	"encoding/binary"
	"fmt"

	"repro/internal/compress"
	"repro/internal/gpu"
	"repro/internal/mpi"
	"repro/internal/obs"
	"repro/internal/obs/errtrack"
)

// CountFn gives the number of float64 values rank dst receives from rank
// src in one exchange (the value-level analogue of SizeFn).
type CountFn func(dst, src int) int

// UniformCount returns the CountFn of a uniform exchange.
func UniformCount(n int) CountFn {
	return func(dst, src int) int { return n }
}

// CompressedOSC is the paper's contribution: the one-sided ring
// all-to-all with lossy compression integrated into the transfer (§V-B).
// The send buffer (the concatenation of all destination payloads in ring
// order) is split into Chunks pieces; one compression kernel per chunk
// is submitted up front on a GPU stream, and the host watches the
// stream's progress counter: as soon as a chunk's kernel completes, the
// puts for the destinations it covers are issued, so compression of
// chunk k+1 overlaps the transfer of chunk k. The target decompresses
// its whole window after the closing fence.
//
// Wire format per destination slot: a 4-byte little-endian compressed
// length followed by the compressed bytes at a fixed window offset, so
// variable-rate methods also work.
type CompressedOSC struct {
	c      *mpi.Comm
	win    *mpi.Win
	method compress.Method
	stream *gpu.Stream
	chunks int
	counts CountFn
	// Pipelined toggles the §V-B overlap; false synchronizes the stream
	// before issuing any put (the ablation baseline).
	Pipelined bool
	// SimCounts, when non-nil, gives the simulated value counts used for
	// timing (kernel costs and wire bytes) in place of the real counts —
	// the scaled-volume experiment mode (see DESIGN.md).
	SimCounts CountFn

	// Precomputed metric names of this exchange's label (SetLabel).
	metricRaw, metricWire, metricErr, metricOverlap, metricAchieved string
	metricTrkMaxRel, metricTrkRMS, metricTrkVals                    string
	label                                                           string
	// errScratch holds decompressed values while measuring the achieved
	// error; allocated lazily and only when an event log is attached.
	errScratch []float64

	recvCounts []int
	slotOff    []int // window offset of each source's slot
	slotLen    []int // window slot size per source
	sendOff    []int // my slot offset within each destination's window
	stagePos   []int // staging offset per destination
	order      []int
	groups     [][]int // ring order split into chunk groups
	expected   []int
	stage      []byte      // compressed staging ("first internal buffer")
	out        [][]float64 // decompressed results, reused across calls
	heal       *healer
}

// NewCompressedOSC collectively builds the compressed exchange for the
// fixed pattern counts, compressing with method, running kernels on a
// stream over dev, pipelining in chunks pieces. All ranks must construct
// with identical counts/method/chunks.
func NewCompressedOSC(c *mpi.Comm, method compress.Method, stream *gpu.Stream, chunks int, counts CountFn) *CompressedOSC {
	if chunks < 1 {
		panic("exchange: chunk count must be ≥ 1")
	}
	p := c.Size()
	me := c.Rank()

	slotBytes := func(values int) int {
		if values == 0 {
			return 0
		}
		return 4 + method.MaxCompressedLen(values)
	}

	recvCounts := make([]int, p)
	slotOff := make([]int, p)
	expected := make([]int, p)
	winSize := 0
	for s := 0; s < p; s++ {
		recvCounts[s] = counts(me, s)
		slotOff[s] = winSize
		winSize += slotBytes(recvCounts[s])
		if recvCounts[s] > 0 {
			expected[s] = 1
		}
	}
	sendSizes := make([]int, p)
	for d := 0; d < p; d++ {
		sendSizes[d] = slotBytes(counts(d, me))
	}
	slotLen := recvSizesBytes(recvCounts, slotBytes)
	sendOff := exchangeOffsets(c, slotLen, slotOff, sendSizes)
	order := ringOrder(c, true)
	stagePos := make([]int, p)
	stageSize := 0
	for _, dst := range order {
		stagePos[dst] = stageSize
		stageSize += slotBytes(counts(dst, me))
	}
	out := make([][]float64, p)
	for s := 0; s < p; s++ {
		out[s] = make([]float64, recvCounts[s])
	}
	x := &CompressedOSC{
		c:          c,
		win:        c.WinCreate(make([]byte, winSize)),
		method:     method,
		stream:     stream,
		chunks:     chunks,
		counts:     counts,
		Pipelined:  true,
		recvCounts: recvCounts,
		slotOff:    slotOff,
		slotLen:    slotLen,
		sendOff:    sendOff,
		stagePos:   stagePos,
		order:      order,
		groups:     splitGroups(order, chunks),
		expected:   expected,
		stage:      make([]byte, stageSize),
		out:        out,
		heal:       newHealer(c),
	}
	x.SetLabel("exchange")
	return x
}

// SetLabel names this exchange in the metric registry: the achieved
// compression is reported as compress/<label>/{raw,wire}_bytes plus the
// error-bound gauge. The FFT plan labels its reshapes fwd0..3 / bwd0..3.
func (x *CompressedOSC) SetLabel(label string) {
	x.label = label
	x.metricRaw, x.metricWire, x.metricErr = obs.CompressMetricNames(label)
	x.metricOverlap = "exchange/" + label + "/overlap_efficiency"
	x.metricAchieved = "compress/" + label + "/achieved_error"
	x.metricTrkMaxRel, x.metricTrkRMS, x.metricTrkVals = obs.ErrtrackMetricNames(label)
}

// recvSizesBytes maps value counts to window slot sizes.
func recvSizesBytes(counts []int, slotBytes func(int) int) []int {
	out := make([]int, len(counts))
	for i, c := range counts {
		out[i] = slotBytes(c)
	}
	return out
}

// splitGroups divides the destination order into up to k contiguous,
// near-equal groups (one compression kernel each).
func splitGroups(order []int, k int) [][]int {
	n := len(order)
	if k > n {
		k = n
	}
	groups := make([][]int, 0, k)
	for i := 0; i < k; i++ {
		lo, hi := n*i/k, n*(i+1)/k
		if hi > lo {
			groups = append(groups, order[lo:hi])
		}
	}
	return groups
}

// Exchange performs the compressed all-to-all on float64 payloads:
// send[d] (counts(d, me) values) is compressed and put into rank d's
// window; the returned slices (indexed by source, reused across calls)
// hold the decompressed data this rank received.
func (x *CompressedOSC) Exchange(send [][]float64) [][]float64 {
	me := x.c.Rank()
	dev := x.stream.Device()
	for _, dst := range x.order {
		if want := x.counts(dst, me); len(send[dst]) != want {
			panic("exchange: send count does not match the compressed OSC plan")
		}
	}

	simCounts := x.counts
	if x.SimCounts != nil {
		simCounts = x.SimCounts
	}
	// Phase 0 (reliable mode only): peers downgraded to the two-sided
	// path get their data up front, uncompressed (lossless), over the
	// checksummed-and-retried transport. Sends never block, so this
	// injects before any kernel is launched.
	healing := x.heal.active()
	x.heal.beginEpoch() // may re-enable demoted links whose probe is due
	if healing {
		for _, dst := range x.order {
			if x.counts(dst, me) > 0 && x.heal.fellTo[dst] {
				x.c.Send(dst, tagFallback, f64Bytes(send[dst]))
			}
		}
	}
	// Phase 1 (§V-B): submit one compression kernel per chunk, all up
	// front, on the same stream.
	rk := x.c.Obs()
	done := make([]float64, len(x.groups))
	kernelTime := 0.0
	for g, group := range x.groups {
		group := group
		inBytes, outBytes := 0, 0
		for _, dst := range group {
			if healing && x.heal.fellTo[dst] {
				continue
			}
			cv := simCounts(dst, me)
			inBytes += 8 * cv
			outBytes += x.method.MaxCompressedLen(cv)
		}
		cost := dev.CompressCost(inBytes, outBytes)
		kernelTime += cost
		done[g] = x.stream.LaunchTagged(obs.PhaseCompress, cost, func() {
			for _, dst := range group {
				vals := send[dst]
				if len(vals) == 0 || (healing && x.heal.fellTo[dst]) {
					continue
				}
				slot := x.stage[x.stagePos[dst]:]
				clen := x.method.Compress(slot[4:], vals)
				binary.LittleEndian.PutUint32(slot, uint32(clen))
			}
		})
	}

	// Phase 2: the host watches the progress counter; each completed
	// chunk's destinations are put while later chunks still compress.
	// The time the host spends blocked on compression kernels (rather
	// than overlapping them with puts) is the pipeline's stall.
	var rawBytes, wireBytes int64
	stall := 0.0
	// With an event log attached, measure the error this epoch actually
	// achieved by round-tripping each compressed slot on the host. Pure
	// wall-clock work outside the virtual timeline; off (and free) when
	// telemetry is off.
	measure := rk.EventsOn()
	worstErr, measured := 0.0, false
	if !x.Pipelined {
		if st := x.stream.ReadyAt() - x.c.Now(); st > 0 {
			rk.Span(obs.TrackHost, obs.PhaseCompressWait, x.c.Now(), x.c.Now()+st, 0)
			stall += st
		}
		x.stream.Synchronize()
	}
	for g, group := range x.groups {
		if x.Pipelined {
			if st := done[g] - x.c.Now(); st > 0 {
				rk.Span(obs.TrackHost, obs.PhaseCompressWait, x.c.Now(), done[g], 0)
				stall += st
			}
			x.c.AdvanceTo(done[g])
		}
		for _, dst := range group {
			if x.counts(dst, me) == 0 || (healing && x.heal.fellTo[dst]) {
				continue
			}
			slot := x.stage[x.stagePos[dst]:]
			clen := int(binary.LittleEndian.Uint32(slot))
			logical := 4 + clen
			if cv := x.counts(dst, me); x.SimCounts != nil && cv > 0 {
				// Charge the wire as if the chunk held the simulated
				// value count at the same compression rate.
				logical = 4 + clen*simCounts(dst, me)/cv
			}
			rawBytes += 8 * int64(simCounts(dst, me))
			wireBytes += int64(logical)
			if measure {
				if st, ok := slotStats(x.method, &x.errScratch, slot[:4+clen], send[dst]); ok {
					measured = true
					if st.MaxRel > worstErr {
						worstErr = st.MaxRel
					}
					rk.Observe(x.metricTrkMaxRel, st.MaxRel)
					rk.Observe(x.metricTrkRMS, st.RMS())
					rk.Add(x.metricTrkVals, st.N)
					rk.Emit(errtrack.AttrEvent(x.c.Now(), x.label, dst, x.method.ErrorBound(), st))
				}
			}
			x.win.PutLogical(dst, x.sendOff[dst], slot[:4+clen], logical)
		}
	}
	rk.Add(x.metricRaw, rawBytes)
	rk.Add(x.metricWire, wireBytes)
	rk.Set(x.metricErr, x.method.ErrorBound())
	rk.Observe(metricOverlapStall, stall)
	if kernelTime > 0 {
		eff := 1 - stall/kernelTime
		if eff < 0 {
			eff = 0
		}
		rk.Set(x.metricOverlap, eff)
	}
	if measured {
		rk.Observe(x.metricAchieved, worstErr)
		rk.Emit(obs.Event{
			T: x.c.Now(), Kind: obs.EventError, Label: x.label, Peer: -1,
			Value: worstErr, Bound: x.method.ErrorBound(),
		})
	}

	// Phase 3: close the epoch. In reliable mode the fence reports (per
	// peer) corrupt or missing puts instead of panicking, so the epilogue
	// can re-fetch the damage over the lossless two-sided path.
	var rep mpi.FenceReport
	if healing {
		rep = x.win.FenceChecked(x.heal.maskExpected(x.expected))
	} else {
		x.win.Fence(x.expected)
	}

	// Phase 4: decompress the whole window (one kernel — the paper
	// decompresses the entire buffer after communications complete).
	// Every slot decode is checked: a mangled length header or payload
	// marks the source damaged instead of panicking or reading out of
	// range.
	buf := x.win.Buffer()
	damaged := make([]bool, x.c.Size())
	for _, s := range rep.Corrupt {
		damaged[s] = true
	}
	for _, s := range rep.Missing {
		damaged[s] = true
	}
	inBytes, outBytes := 0, 0
	for s, cnt := range x.recvCounts {
		if cnt == 0 || (healing && x.heal.fellFrom[s]) {
			continue
		}
		sc := simCounts(me, s)
		inBytes += x.method.MaxCompressedLen(sc)
		outBytes += 8 * sc
	}
	x.stream.LaunchTagged(obs.PhaseDecompress, dev.CompressCost(inBytes, outBytes), func() {
		for s, cnt := range x.recvCounts {
			if cnt == 0 || damaged[s] || (healing && x.heal.fellFrom[s]) {
				continue
			}
			slot := buf[x.slotOff[s] : x.slotOff[s]+x.slotLen[s]]
			if err := decodeSlot(x.method, x.out[s], slot); err != nil {
				if !healing {
					panic(err)
				}
				damaged[s] = true // re-fetched losslessly below
			}
		}
	})
	x.stream.Synchronize()
	if healing {
		x.healEpoch(send, damaged)
	}
	return x.out
}

// minNormal64 is the smallest positive normal float64. Relative error
// against a subnormal denominator explodes without carrying information,
// so such values (and exact zeros) are scored by absolute error instead.
const minNormal64 = 2.2250738585072014e-308

// slotStats round-trips one locally compressed slot and returns the
// block-level error statistics against the original values: the worst
// relative error, the worst absolute error, and the squared-error sum —
// the per-peer attribution the errtrack layer aggregates. Originals
// below the method's MinNormal (or FP64's, whichever is larger) are
// scored by absolute error: the method's relative bound only covers its
// normal range, and a relative error against a subnormal or underflowed
// denominator explodes without carrying information. scratch is the
// caller's reusable decode buffer.
func slotStats(m compress.Method, scratch *[]float64, slot []byte, vals []float64) (errtrack.Stat, bool) {
	if len(vals) == 0 {
		return errtrack.Stat{}, false
	}
	if cap(*scratch) < len(vals) {
		*scratch = make([]float64, len(vals))
	}
	dst := (*scratch)[:len(vals)]
	if err := decodeSlot(m, dst, slot); err != nil {
		return errtrack.Stat{}, false // unreachable for a slot we just produced
	}
	relFloor := m.MinNormal()
	if relFloor < minNormal64 {
		relFloor = minNormal64
	}
	st := errtrack.Stat{N: int64(len(vals))}
	for i, v := range vals {
		d := dst[i] - v
		if d < 0 {
			d = -d
		}
		if d > st.MaxAbs {
			st.MaxAbs = d
		}
		st.SumSq += d * d
		av := v
		if av < 0 {
			av = -av
		}
		if av < relFloor {
			continue // below the method's normal range: absolute only
		}
		if d /= av; d > st.MaxRel {
			st.MaxRel = d
		}
	}
	return st, true
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

// healEpoch is the reliable-mode epilogue of one exchange: drain the
// two-sided deliveries of fallen-back sources, re-fetch every damaged
// slot over the lossless path, and escalate repeatedly failing links to
// a permanent fallback.
func (x *CompressedOSC) healEpoch(send [][]float64, damaged []bool) {
	me := x.c.Rank()
	p := x.c.Size()
	for s := 0; s < p; s++ {
		if x.recvCounts[s] > 0 && x.heal.fellFrom[s] {
			f64Into(x.out[s], x.c.Recv(s, tagFallback), s)
		}
	}
	putSrc := make([]bool, p)
	putDst := make([]bool, p)
	for r := 0; r < p; r++ {
		putSrc[r] = x.recvCounts[r] > 0 && !x.heal.fellFrom[r]
		putDst[r] = x.counts(r, me) > 0 && !x.heal.fellTo[r]
	}
	x.heal.round(damaged, putSrc, putDst,
		func(d int) []byte { return f64Bytes(send[d]) },
		func(s int, data []byte) { f64Into(x.out[s], data, s) })
}

// Health reports the cumulative degradation of this exchange: repaired
// slots and peers downgraded to the two-sided path. Repaired and
// fallen-back slots arrive lossless (raw FP64), trading the compression
// win for integrity. Always healthy without a fault plan.
func (x *CompressedOSC) Health() Degradation { return x.heal.report() }

// LedgerState serializes the healing ledger (per-peer damage counters,
// fallback flags, and re-promotion schedule) for an epoch checkpoint.
func (x *CompressedOSC) LedgerState() []byte { return x.heal.state() }

// RestoreLedger installs a checkpointed healing ledger, rolling the
// degradation decisions back to the committed epoch.
func (x *CompressedOSC) RestoreLedger(data []byte) error { return x.heal.restore(data) }
