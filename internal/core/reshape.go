package core

import (
	"sort"

	"repro/internal/compress"
	"repro/internal/exchange"
	"repro/internal/gpu"
	"repro/internal/grid"
	"repro/internal/mem"
	"repro/internal/mpi"
	"repro/internal/obs"
)

// pipe is what every stage of one pipeline shares, whatever its element
// type: the communicator, the resolved options, the GPU stream the
// kernels are charged to, and the phase profile they accumulate into.
type pipe struct {
	c        *mpi.Comm
	opts     Options
	stream   *gpu.Stream
	precBits int
	profile  Profile

	// headers are the P-length arrays of the two-sided exchanges, which
	// all of the plan's reshapes share.
	headers exchange.Headers
	// scratch holds the one peer's values a codec column is encoding or
	// decoding (reshape.Send and Recv).
	scratch []float64
}

// kernel runs one GPU kernel of the given cost to completion as a span
// of the given phase (carrying bytes, the volume it moved), and adds its
// virtual time to the phase's profile entry.
func (pp *pipe) kernel(phase obs.Phase, spent *float64, bytes int, cost float64, run func()) {
	rk := pp.c.Obs()
	t0 := pp.c.Now()
	rk.Begin(obs.TrackHost, phase, t0)
	pp.stream.LaunchTagged(phase, cost, run)
	pp.stream.Synchronize()
	*spent += pp.c.Now() - t0
	rk.End(pp.c.Now(), int64(bytes))
}

// maxCount returns the largest per-peer element count of a schedule.
func maxCount(ts []grid.Transfer) int {
	m := 0
	for _, t := range ts {
		m = max(m, t.Count)
	}
	return m
}

// layout is one side of a reshape: a pipeline stage's decomposition on
// the data grid, its mirror on the SimScale-enlarged grid the time plane
// draws message sizes and kernel volumes from, and the local memory
// order of the stage's data.
type layout struct {
	stage             int
	decomp, simDecomp grid.Decomp
	order             grid.Order
}

// codec is a reshape element's wire format, size bytes per element. The
// wire is the elements' own memory, viewed as bytes or, on the
// compressed (FP64-only) transports, as size/8 float64 values per
// element (mem.View: little-endian, interleaved re/im for complex
// elements), so packing is the only pass over the data. The pencils'
// codec is codec[C]{size: elemSize}. The exception is a wire value
// narrower than its element: narrow and widen, set only then, convert
// through the reshape's stage scratch.
type codec[E mem.Word] struct {
	size   int
	narrow func(dst []byte, src []E)
	widen  func(src []byte, dst []E)
}

// realCodec ships the real bricks of the r2c transform at the
// pipeline's wire precision: the float64 values themselves in FP64, and
// in FP32 narrowed to float32 — the one codec whose wire is not its
// elements' memory, since PlanR2C takes float64 input in both pipelines.
func realCodec(precBits int) codec[float64] {
	if precBits != 32 {
		return codec[float64]{size: 8}
	}
	return codec[float64]{
		size: 4,
		narrow: func(dst []byte, src []float64) {
			w := mem.View[float32](dst)
			for i, v := range src {
				w[i] = float32(v)
			}
		},
		widen: func(src []byte, dst []float64) {
			for i, v := range mem.View[float32](src) {
				dst[i] = float64(v)
			}
		},
	}
}

// ledgered is the checkpointable part of an exchange (the ring's).
type ledgered interface {
	LedgerState() []byte
	RestoreLedger([]byte) error
}

// reshape moves data of element type E between two decompositions
// through its exchange, which it serves as the exchange.Payloads: the
// exchange takes each destination's overlap as it sends it (Send) and
// hands back each source's as it lands (Received).
type reshape[E mem.Word] struct {
	pp        *pipe
	wire      codec[E]
	plan      grid.Plan
	fromBox   grid.Box
	fromOrder grid.Order
	toBox     grid.Box
	toOrder   grid.Order
	// Simulated volumes of this rank's pack/unpack (scaled-volume mode),
	// in elements.
	simSendTotal, simRecvTotal int
	// metricTime is the precomputed histogram name for this reshape's
	// measured exchange time ("exchange/<label>/time_s"), which the bench
	// artifacts compare against the cost model's prediction. label is the
	// reshape's name (fwd0..3 / bwd0..3, r2c-real / r2c-real-back),
	// stamped on telemetry events.
	metricTime string
	label      string
	// toStage identifies the output decomposition stage (index into
	// pl.decomp/orders).
	toStage int

	x exchange.Transport
	// in is execute's input while the exchange runs: Send packs from it.
	in []E
	// stage is the narrowing codec's element scratch (nil otherwise).
	stage  []E
	outBuf []E
}

func newReshape[E mem.Word](pp *pipe, wire codec[E], from, to layout, label string) *reshape[E] {
	me := pp.c.Rank()
	r := &reshape[E]{
		pp:         pp,
		wire:       wire,
		plan:       grid.PlanFor(me, from.decomp, to.decomp),
		fromBox:    from.decomp.Box(me),
		fromOrder:  from.order,
		toBox:      to.decomp.Box(me),
		toOrder:    to.order,
		metricTime: "exchange/" + label + "/time_s",
		label:      label,
		toStage:    to.stage,
	}
	simPlan := grid.PlanFor(me, from.simDecomp, to.simDecomp)
	r.simSendTotal, r.simRecvTotal = simPlan.SendTotal, simPlan.RecvTotal

	// The exchange keys off the resolved choice, never off pp.opts, so
	// a tuned stage is constructed and executed exactly like — and is
	// bit-identical to — the same stage under fixed Options.
	choice := pp.opts.choice(label)
	row := choice.Backend.Row()
	if row.algo == nil {
		panic("core: unknown backend " + row.Name)
	}
	var method compress.Method
	if row.Compressed {
		if choice.Method == nil {
			panic("core: compressed exchange choice for " + label + " has no method")
		}
		if pp.precBits == 32 {
			panic("core: compressed backends require the FP64 pipeline")
		}
		method = choice.Method
		if n := wire.size / 8 * max(maxCount(r.plan.Send), maxCount(r.plan.Recv)); len(pp.scratch) < n {
			pp.scratch = make([]float64, n)
		}
	}
	r.x = row.algo.build(wiring{pp: pp, plan: r.plan, simPlan: simPlan, elem: wire.size, label: label,
		chunks: choice.Chunks, codec: exchange.Codec{Method: method, Stream: pp.stream, Label: label}})
	return r
}

// wiring is what a backend row builds one reshape's exchange from.
type wiring struct {
	pp            *pipe
	plan, simPlan grid.Plan // the data plane's plan, and the time plane's
	elem          int       // wire bytes per element
	label         string
	chunks        int            // the choice's §V-B pipeline depth
	codec         exchange.Codec // the row's codec column
}

// An algorithm is one exchange body, and build makes it for a reshape.
type algorithm struct {
	build func(w wiring) exchange.Transport
}

var (
	twoSided = &algorithm{func(w wiring) exchange.Transport {
		// The time plane's plan meets every rank the data plane's meets
		// (its boxes are the same splits of a finer grid), and perhaps
		// more: those go out as phantom messages.
		send := make([]exchange.Peer, len(w.simPlan.Send))
		for i, t := range w.simPlan.Send {
			send[i] = exchange.Peer{Rank: t.Rank, Bytes: w.elem * transferWith(w.plan.Send, t.Rank).Count, Logical: w.elem * t.Count}
		}
		recv := make([]exchange.Peer, len(w.plan.Recv))
		for i, t := range w.plan.Recv {
			recv[i] = exchange.Peer{Rank: t.Rank, Bytes: w.elem * t.Count, Logical: w.elem * transferWith(w.simPlan.Recv, t.Rank).Count}
		}
		return exchange.NewTwoSided(w.pp.c, send, recv, w.codec, &w.pp.headers)
	}}
	ring = &algorithm{func(w wiring) exchange.Transport {
		// Scale the pipeline depth to the payload: one chunk per 256 KB
		// of send data (capped at the configured depth) so that tiny
		// exchanges do not pay per-kernel overhead for overlap they
		// cannot use.
		chunks := 1
		if w.codec.Method != nil {
			chunks = min(max(w.simPlan.SendTotal*w.elem/(256<<10), 1), w.chunks)
		}
		me := w.pp.c.Rank()
		x := exchange.NewRing(w.pp.c, pairBytes(w.plan, me, w.elem), true, w.codec, chunks)
		x.Logical = pairBytes(w.simPlan, me, w.elem)
		x.Pipelined = !w.pp.opts.DisablePipeline
		return x
	}}
	bruck = &algorithm{func(w wiring) exchange.Transport {
		// Bruck requires uniform blocks: pad every pairwise payload to
		// the global maximum overlap. The maximum is reduced
		// collectively (every pair appears in its source's send list, so
		// the send-side maximum covers all pairs), which keeps the block
		// size — and hence every round's message sizes — identical on
		// all ranks.
		c := w.pp.c
		maxSend := func(pl grid.Plan) int {
			return w.elem * int(c.AllreduceFloat64("max", float64(maxCount(pl.Send))))
		}
		block := maxSend(w.plan)
		logical := block
		if w.pp.opts.SimScale > 1 {
			// A second reduction for the simulated plan: unconditional,
			// it would add messages to unscaled runs.
			logical = maxSend(w.simPlan)
		}
		return exchange.NewBruck(c, block, logical)
	}}
)

// pairBytes(pl, me, elem)(dst, src) is the bytes src sends dst in rank
// me's plan pl, found in pl.Send if src == me, else in pl.Recv (dst
// must be me).
func pairBytes(pl grid.Plan, me, elem int) exchange.SizeFn {
	return func(dst, src int) int {
		if src != me {
			return elem * transferWith(pl.Recv, src).Count
		}
		return elem * transferWith(pl.Send, dst).Count
	}
}

// transferWith returns the transfer with peer in the rank-sorted list
// ts, or the empty Transfer if there is none.
func transferWith(ts []grid.Transfer, peer int) grid.Transfer {
	i := sort.Search(len(ts), func(i int) bool { return ts[i].Rank >= peer })
	if i == len(ts) || ts[i].Rank != peer {
		return grid.Transfer{}
	}
	return ts[i]
}

// execute performs the reshape: pack (GPU), exchange, unpack (GPU). The
// exchange packs and unpacks one peer at a time through Send and
// Received, so the pack and unpack kernels charge their time with no
// host work of their own. The returned buffer is owned by the reshape
// and valid until its next execution.
func (r *reshape[E]) execute(local []E) []E {
	pp := r.pp
	c := pp.c
	dev := pp.opts.Device
	rk := c.Obs()
	sendWire, recvWire := r.simSendTotal*r.wire.size, r.simRecvTotal*r.wire.size
	out := r.output()

	pp.kernel(obs.PhasePack, &pp.profile.Pack, sendWire, dev.CopyCost(sendWire), nil)

	tExchange := c.Now()
	rk.Begin(obs.TrackHost, obs.PhaseExchange, tExchange)
	r.in = local
	r.x.ExchangeWith(r)
	r.in = nil

	tUnpack := c.Now()
	pp.profile.Exchange += tUnpack - tExchange
	// The span carries the uncompressed bytes this rank contributed to
	// the wire.
	rk.End(tUnpack, int64(sendWire))
	rk.Observe(r.metricTime, tUnpack-tExchange)
	rk.Emit(obs.Event{
		T: tUnpack, Kind: obs.EventExchange, Label: r.label, Peer: -1,
		Value: tUnpack - tExchange,
	})

	pp.kernel(obs.PhaseUnpack, &pp.profile.Unpack, recvWire, dev.CopyCost(recvWire), nil)
	return out
}

// Send packs rank dst's overlap of the input, reordered to the target
// layout, into buf, or into the plan's value scratch when buf is nil (a
// codec column encodes it from there), and returns its wire bytes.
func (r *reshape[E]) Send(dst int, buf []byte) []byte {
	t := transferWith(r.plan.Send, dst)
	if t.Count == 0 {
		return buf[:0]
	}
	if buf == nil {
		buf = mem.View[byte](r.pp.scratch)
	}
	buf = buf[: r.wire.size*t.Count : r.wire.size*t.Count]
	if r.wire.narrow == nil {
		grid.Pack(r.in, r.fromBox, r.fromOrder, t.Sub, r.toOrder, mem.View[E](buf))
	} else {
		grid.Pack(r.in, r.fromBox, r.fromOrder, t.Sub, r.toOrder, r.stage)
		r.wire.narrow(buf, r.stage[:t.Count])
	}
	return buf
}

// Recv returns the plan's value scratch, which a codec column decodes
// rank src's bytes into.
func (r *reshape[E]) Recv(src int) []byte {
	return mem.View[byte](r.pp.scratch)[:r.wire.size*transferWith(r.plan.Recv, src).Count]
}

// Received unpacks rank src's bytes, which may run past its overlap,
// into the output.
func (r *reshape[E]) Received(src int, data []byte) {
	t := transferWith(r.plan.Recv, src)
	if t.Count == 0 {
		return
	}
	wire := data[:r.wire.size*t.Count]
	var in []E
	if r.wire.narrow == nil {
		in = mem.View[E](wire)
	} else {
		in = r.stage[:t.Count]
		r.wire.widen(wire, in)
	}
	grid.Unpack(in, t.Sub, r.outBuf, r.toBox, r.toOrder)
}

// output returns the reshape's output buffer (and the narrowing codec's
// stage scratch), allocated on first use like the exchange's buffers,
// so a reshape that never runs holds none.
func (r *reshape[E]) output() []E {
	if r.outBuf == nil {
		r.outBuf = make([]E, r.toBox.Count())
		if r.wire.narrow != nil {
			r.stage = make([]E, max(maxCount(r.plan.Send), maxCount(r.plan.Recv)))
		}
	}
	return r.outBuf
}
