package exchange

import (
	"encoding/binary"

	"repro/internal/compress"
	"repro/internal/gpu"
	"repro/internal/mem"
	"repro/internal/mpi"
	"repro/internal/obs"
)

// Ring is the one-sided all-to-all of Algorithm 3: each rank exposes its
// receive buffer through a cached window, and an exchange walks the
// ring order issuing MPI_Win_put operations and closes the epoch with
// one fence. Window creation is collective and expensive (§V-A), so a
// ring is built once per pattern and reused; its window memory and send
// staging are allocated by its first exchange.
//
// The raw column packs each destination into its slot of the staging as
// it puts it, and hands each source back straight from the window. The
// codec column is the paper's contribution (§V-B): the staging, in ring
// order, is split into chunk groups, one compression kernel per group
// is submitted up front on the GPU stream, and as soon as the stream's
// progress counter shows a group done, its destinations are put while
// later groups still compress. The target decompresses its whole window
// in one kernel after the fence. In reliable mode the ring heals (see
// epilogue).
type Ring struct {
	c   *mpi.Comm
	win *mpi.Win
	column

	size     SizeFn    // each pair's raw bytes
	order    []int     // destinations in ring order
	groups   [][]int   // order in chunk groups, one kernel each
	done     []float64 // per-group kernel completion time, per call
	slotOff  []int     // source s's window slot is [slotOff[s], slotOff[s+1])
	sendOff  []int     // my slot offset within each destination's window
	expected []int
	stageLen int
	stage    []byte  // send slots in ring order
	heal     *healer // allocated when first used
	// Logical gives the bytes charged on the wire for the pair (dst,
	// src). NewRing sets it to size; the scaled-volume experiment mode
	// replaces it, so that timing reflects a larger simulated problem
	// (see DESIGN.md).
	Logical SizeFn
	// FlushEvery bounds the number of outstanding puts: after this many
	// puts the origin waits for their completion (Algorithm 3 line 10
	// waits once per node step; it also throttles injection, which §V-A
	// notes unthrottled posting lacks). The zero value never flushes.
	FlushEvery int
	// Pipelined toggles the §V-B overlap of the codec column (NewRing
	// sets it); false synchronizes the stream before the first put, the
	// ablation baseline.
	Pipelined bool
}

// NewRing collectively builds the ring for the fixed pattern size with
// the codec column col, pipelined in chunks kernels (1 for the raw
// column). nodeAware selects the architecture-aware ring permutation
// (true reproduces the paper; false is the naive ring ablation).
func NewRing(c *mpi.Comm, size SizeFn, nodeAware bool, col Codec, chunks int) *Ring {
	if chunks < 1 {
		panic("exchange: chunk count must be ≥ 1")
	}
	p, me := c.Size(), c.Rank()
	x := &Ring{c: c, column: newColumn(col), size: size, Logical: size,
		order: ringOrder(c, nodeAware), slotOff: make([]int, p+1), expected: make([]int, p), Pipelined: true}
	for s := 0; s < p; s++ {
		n := x.slotBytes(size(me, s))
		x.slotOff[s+1] = x.slotOff[s] + n
		x.expected[s] = min(n, 1)
	}
	// Learn my slot within each destination's window via the one-time
	// plan handshake (O(partners) messages instead of an O(p²) sum).
	sendSizes := make([]int, p)
	for d := range sendSizes {
		sendSizes[d] = x.slotBytes(size(d, me))
		x.stageLen += sendSizes[d]
	}
	x.sendOff = exchangeOffsets(c, x.slotOff, sendSizes)
	x.win = c.WinCreate(nil)
	x.groups = splitGroups(x.order, chunks)
	if col.Method != nil {
		x.done = make([]float64, len(x.groups))
	}
	return x
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

// alloc returns the window memory, allocating it and the send staging
// on the first call and attaching it to the window, which was created
// over none.
func (x *Ring) alloc() []byte {
	if x.stage == nil {
		x.stage = mem.Bytes(x.stageLen)
		x.win.Attach(mem.Bytes(x.slotOff[len(x.slotOff)-1]))
	}
	return x.win.Buffer()
}

// ExchangeWith performs the all-to-all over io: each destination's
// bytes are taken as they are put (raw) or encoded (codec), and each
// source's go back through io.Received after the fence, straight from
// the window (raw) or decoded into io.Recv (codec), or from the
// lossless two-sided path for a repaired or fallen-back source. A nil
// io is the raw column's phantom exchange: the same puts with no
// payloads, no healing, and a plain fence.
func (x *Ring) ExchangeWith(io Payloads) {
	var h *healer // non-nil: this epoch heals
	if io != nil {
		x.alloc()
		if x.c.Reliable() {
			h = x.ledger()
			h.beginEpoch() // may re-enable demoted links whose probe is due
		}
	}
	busy := 0.0
	if x.method != nil {
		busy = x.encode(io, h)
	}
	x.put(io, h, busy)
	// Close the epoch. In reliable mode the fence reports (per peer)
	// corrupt or missing puts instead of panicking, so the epilogue can
	// re-fetch the damage over the lossless two-sided path.
	if h == nil {
		x.win.Fence(x.expected)
	} else {
		h.damagedBy(x.win.FenceChecked(h.maskExpected(x.expected)))
	}
	if io == nil {
		return
	}
	x.deliver(io, h)
	if h != nil {
		x.epilogue(io, h)
	}
}

// encode is the codec column's send side, and returns the kernels'
// total cost. In reliable mode, destinations downgraded to the
// two-sided path first get their raw bytes (lossless) over the
// checksummed-and-retried transport; sends never block, so this injects
// before any kernel is launched. Then one compression kernel per chunk
// group is submitted, all up front, on the same stream (§V-B).
func (x *Ring) encode(io Payloads, h *healer) (busy float64) {
	me := x.c.Rank()
	if h != nil {
		for _, dst := range x.order {
			if n := x.size(dst, me); n > 0 && h.to[dst].fell {
				x.c.Send(dst, tagFallback, sendOf(io, dst, n, h.buffer(n)))
			}
		}
	}
	dev := x.stream.Device()
	pos := 0
	for g, group := range x.groups {
		at := pos
		inBytes, outBytes := 0, 0
		for _, dst := range group {
			pos += x.slotBytes(x.size(dst, me))
			if h != nil && h.to[dst].fell {
				continue
			}
			sim := x.Logical(dst, me) / 8
			inBytes += 8 * sim
			outBytes += x.method.MaxCompressedLen(sim)
		}
		cost := dev.CompressCost(inBytes, outBytes)
		busy += cost
		x.done[g] = x.stream.LaunchTagged(obs.PhaseCompress, cost, func() {
			for _, dst := range group {
				n := x.size(dst, me)
				slot := x.stage[at : at+x.slotBytes(n)]
				at += len(slot)
				if n > 0 && (h == nil || !h.to[dst].fell) {
					encodeSlot(x.method, slot, mem.View[float64](sendOf(io, dst, n, nil)))
				}
			}
		})
	}
	return busy
}

// put walks the ring order group by group and puts each destination's
// slot into its window. On the codec column it first waits for the
// group's kernel on the stream's progress counter; the time the host
// spends blocked there, rather than overlapping kernels (busy in all)
// with puts, is the pipeline's stall.
func (x *Ring) put(io Payloads, h *healer, busy float64) {
	me := x.c.Rank()
	rk := x.c.Obs()
	coded := x.method != nil
	var rawBytes, wireBytes int64
	stall := 0.0
	// With an event log attached, measure the error this epoch actually
	// achieved by round-tripping each compressed slot on the host. Pure
	// wall-clock work outside the virtual timeline; off (and free) when
	// telemetry is off.
	measure := coded && rk.EventsOn()
	if coded && !x.Pipelined {
		if st := x.stream.ReadyAt() - x.c.Now(); st > 0 {
			rk.Span(obs.TrackHost, obs.PhaseCompressWait, x.c.Now(), x.c.Now()+st, 0)
			stall += st
		}
		x.stream.Synchronize()
	}
	pending, flushAt, pos := 0, x.c.Now(), 0
	for g, group := range x.groups {
		if coded && x.Pipelined {
			if st := x.done[g] - x.c.Now(); st > 0 {
				rk.Span(obs.TrackHost, obs.PhaseCompressWait, x.c.Now(), x.done[g], 0)
				stall += st
			}
			x.c.AdvanceTo(x.done[g])
		}
		for _, dst := range group {
			n := x.size(dst, me)
			if n == 0 {
				continue
			}
			var slot []byte
			if io != nil {
				at := pos
				pos += x.slotBytes(n)
				slot = x.stage[at:pos]
			}
			if h != nil && h.to[dst].fell {
				if !coded {
					// Downgraded link: two-sided, checksummed, retried, in
					// ring order (the codec column sent it up front).
					x.c.Send(dst, tagFallback, sendOf(io, dst, n, slot))
				}
				continue
			}
			wire := x.Logical(dst, me)
			data := slot
			switch {
			case coded:
				clen := int(binary.LittleEndian.Uint32(slot))
				data = slot[:4+clen]
				sim := wire / 8
				wire = slotWire(clen, n/8, sim)
				rawBytes += 8 * int64(sim)
				wireBytes += int64(wire)
				if measure {
					x.slot(rk, x.c.Now(), dst, data, mem.View[float64](sendOf(io, dst, n, nil)))
				}
			case io != nil:
				data = sendOf(io, dst, n, slot)
			}
			done := x.win.PutLogical(dst, x.sendOff[dst], data, wire)
			if done > flushAt {
				flushAt = done
			}
			if pending++; x.FlushEvery > 0 && pending >= x.FlushEvery {
				x.flush(flushAt) // wait the completion of the node step
				pending = 0
			}
		}
	}
	if !coded {
		return
	}
	x.volume(rk, rawBytes, wireBytes)
	rk.Observe(metricOverlapStall, stall)
	if busy > 0 {
		rk.Set(x.metricOverlap, max(0, 1-stall/busy))
	}
	x.achieved(rk, x.c.Now())
}

// deliver hands each source's put payload back, but for the ones the
// epilogue delivers: on the raw column straight from the window; on the
// codec column through one kernel that decompresses the whole window
// (the paper decompresses the entire buffer after communications
// complete). Every slot decode is checked: a mangled length header or
// payload marks the source damaged instead of panicking or reading out
// of range.
func (x *Ring) deliver(io Payloads, h *healer) {
	buf := x.win.Buffer()
	skip := func(s int) bool { return h != nil && (h.from[s].fell || h.damaged[s]) }
	if x.method == nil {
		for s := range x.expected {
			if lo, hi := x.slotOff[s], x.slotOff[s+1]; lo < hi && !skip(s) {
				io.Received(s, buf[lo:hi:hi])
			}
		}
		return
	}
	me := x.c.Rank()
	inBytes, outBytes := 0, 0
	for s, e := range x.expected {
		if e == 0 || h != nil && h.from[s].fell {
			continue
		}
		sim := x.Logical(me, s) / 8
		inBytes += x.method.MaxCompressedLen(sim)
		outBytes += 8 * sim
	}
	x.stream.LaunchTagged(obs.PhaseDecompress, x.stream.Device().CompressCost(inBytes, outBytes), func() {
		for s, e := range x.expected {
			if e == 0 || skip(s) {
				continue
			}
			dst := io.Recv(s)
			if err := decodeSlot(x.method, mem.View[float64](dst), buf[x.slotOff[s]:x.slotOff[s+1]]); err != nil {
				if h == nil {
					panic(err)
				}
				h.damaged[s] = true // re-fetched losslessly by the epilogue
				continue
			}
			io.Received(s, dst)
		}
	})
	x.stream.Synchronize()
}

// flush waits until the outstanding puts completed at their targets and
// attributes the stall (if any) to the run's metrics and trace.
func (x *Ring) flush(flushAt float64) {
	x.c.CountFlush()
	now := x.c.Now()
	if stall := flushAt - now; stall > 0 {
		rk := x.c.Obs()
		rk.Span(obs.TrackHost, obs.PhaseFlush, now, flushAt, 0)
		rk.Add(metricFlushStalls, 1)
		rk.Observe(metricFlushStallS, stall)
	}
	x.c.AdvanceTo(flushAt)
}

// OSC is the ring's raw column over whole per-peer byte slices.
type OSC struct {
	*Ring
	whole whole[byte] // Exchange's payloads; out views the window
}

// NewOSC collectively builds a cached one-sided exchange for the fixed
// pattern described by size (see NewRing for nodeAware).
func NewOSC(c *mpi.Comm, size SizeFn, nodeAware bool) *OSC {
	return &OSC{Ring: NewRing(c, size, nodeAware, Codec{}, 1)}
}

// NewOSCPhantom builds an OSC for the phantom exchange (Exchange(nil),
// timing-only), which lets bandwidth benches run at rank counts where
// materializing p² buffers would exhaust memory. It is NewOSC: a ring
// allocates no memory before its first real exchange.
func NewOSCPhantom(c *mpi.Comm, size SizeFn, nodeAware bool) *OSC { return NewOSC(c, size, nodeAware) }

// Exchange performs the all-to-all: send[d] goes to rank d and must be
// size(d, me) bytes. The result, indexed by source, aliases the window
// buffer and is valid until the next Exchange. A nil send is the
// phantom exchange: the same puts with no payloads, no healing, a plain
// fence and a nil result.
func (o *OSC) Exchange(send [][]byte) [][]byte {
	if send == nil {
		o.ExchangeWith(nil)
		return nil
	}
	if o.whole.out == nil {
		buf := o.alloc()
		o.whole.out = make([][]byte, len(o.expected))
		for s := range o.whole.out {
			lo, hi := o.slotOff[s], o.slotOff[s+1]
			o.whole.out[s] = buf[lo:hi:hi]
		}
	}
	o.whole.send = send
	o.ExchangeWith(&o.whole)
	o.whole.send = nil
	return o.whole.out
}

// ExchangeN is Exchange(nil), the phantom exchange.
func (o *OSC) ExchangeN() { o.ExchangeWith(nil) }

// CompressedOSC is the ring's codec column over whole per-peer float64
// slices: the paper's contribution, the one-sided ring all-to-all with
// lossy compression integrated into the transfer (§V-B).
type CompressedOSC struct {
	*Ring
	whole whole[float64] // Exchange's payloads
}

// NewCompressedOSC collectively builds the compressed exchange for the
// fixed pattern counts, compressing with method, running kernels on a
// stream over dev, pipelining in chunks pieces. All ranks must construct
// with identical counts/method/chunks.
func NewCompressedOSC(c *mpi.Comm, method compress.Method, stream *gpu.Stream, chunks int, counts CountFn) *CompressedOSC {
	size := func(dst, src int) int { return 8 * counts(dst, src) }
	return &CompressedOSC{Ring: NewRing(c, size, true, Codec{Method: method, Stream: stream, Label: "exchange"}, chunks)}
}

// Exchange is ExchangeWith on whole float64 payloads: send[d]
// (counts(d, me) values) is compressed straight from its memory and put
// into rank d's window; the returned slices (indexed by source,
// allocated by the first call and reused) hold the decompressed data
// this rank received.
func (x *CompressedOSC) Exchange(send [][]float64) [][]float64 {
	if x.whole.out == nil {
		me := x.c.Rank()
		x.whole.out = make([][]float64, len(x.expected))
		for s := range x.whole.out {
			x.whole.out[s] = make([]float64, x.size(me, s)/8)
		}
	}
	x.whole.send = send
	x.ExchangeWith(&x.whole)
	x.whole.send = nil
	return x.whole.out
}
