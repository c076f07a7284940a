package exchange

import (
	"fmt"

	"repro/internal/mem"
	"repro/internal/mpi"
	"repro/internal/obs"
)

// SizeFn gives the logical bytes that rank dst receives from rank src in
// one exchange. Every rank constructs its OSC from the same SizeFn
// (derived from the globally known communication plan, e.g. the box
// decompositions of an FFT reshape), which is what lets origins compute
// remote window offsets without a handshake.
type SizeFn func(dst, src int) int

// Uniform returns the SizeFn of a uniform all-to-all (n bytes per pair).
func Uniform(n int) SizeFn {
	return func(dst, src int) int { return n }
}

// OSC is the one-sided all-to-all of Algorithm 3: each rank exposes its
// receive buffer through a cached window; Exchange walks the node-aware
// ring order issuing MPI_Win_put operations and closes the epoch with
// one fence. Construct once per communication pattern and reuse —
// window creation is collective and expensive (§V-A), which caching
// amortizes.
type OSC struct {
	c         *mpi.Comm
	win       *mpi.Win
	size      SizeFn
	recvSizes []int // bytes I receive from each source
	offsets   []int // window offset per source
	sendOff   []int // my offset within each destination's window
	order     []int
	expected  []int
	out       [][]byte // per-source result slices of the window
	heal      *healer
	// FlushEvery bounds the number of outstanding puts: after this many
	// puts the origin waits for their completion (Algorithm 3 line 10
	// waits once per node step; it also throttles injection, which §V-A
	// notes unthrottled posting lacks). 0 disables flushing. NewOSC
	// defaults it to the GPUs-per-node count.
	FlushEvery int
	// Logical gives the bytes charged on the wire for the pair (dst,
	// src). The constructors set it to the plan's SizeFn; the
	// scaled-volume experiment mode replaces it, so that timing
	// reflects a larger simulated problem (see DESIGN.md).
	Logical SizeFn
}

// NewOSC collectively builds a cached one-sided exchange for the fixed
// pattern described by size. nodeAware selects the architecture-aware
// ring permutation (true reproduces the paper; false is the naive ring
// ablation).
func NewOSC(c *mpi.Comm, size SizeFn, nodeAware bool) *OSC {
	return newOSC(c, size, nodeAware, true)
}

// NewOSCPhantom builds an OSC whose window holds no real memory; only
// the phantom exchange (Exchange(nil), timing-only) may be used. It
// lets bandwidth benches run at rank counts where materializing p²
// buffers would exhaust memory.
func NewOSCPhantom(c *mpi.Comm, size SizeFn, nodeAware bool) *OSC {
	return newOSC(c, size, nodeAware, false)
}

func newOSC(c *mpi.Comm, size SizeFn, nodeAware, alloc bool) *OSC {
	p := c.Size()
	me := c.Rank()
	recvSizes := make([]int, p)
	offsets := make([]int, p)
	expected := make([]int, p)
	total := 0
	for s := 0; s < p; s++ {
		recvSizes[s] = size(me, s)
		offsets[s] = total
		total += recvSizes[s]
		if recvSizes[s] > 0 {
			expected[s] = 1
		}
	}
	// Learn my slot within each destination's window via the one-time
	// plan handshake (O(partners) messages instead of an O(p²) sum).
	sendSizes := make([]int, p)
	for d := 0; d < p; d++ {
		sendSizes[d] = size(d, me)
	}
	sendOff := exchangeOffsets(c, recvSizes, offsets, sendSizes)
	var buf []byte
	var out [][]byte
	if alloc {
		// Word-aligned, so that a receiver may view each source's slot
		// as the elements it holds (mem.View).
		buf = mem.Bytes(total)
		out = make([][]byte, p)
		for s, n := range recvSizes {
			out[s] = buf[offsets[s] : offsets[s]+n : offsets[s]+n]
		}
	}
	return &OSC{
		c:         c,
		win:       c.WinCreate(buf),
		size:      size,
		Logical:   size,
		recvSizes: recvSizes,
		offsets:   offsets,
		sendOff:   sendOff,
		order:     ringOrder(c, nodeAware),
		expected:  expected,
		out:       out,
		heal:      newHealer(c),
	}
}

// Health reports the cumulative degradation of this exchange: repaired
// slots and peers downgraded to the two-sided path. Always healthy
// without a fault plan.
func (o *OSC) Health() Degradation { return o.heal.report() }

// LedgerState serializes the healing ledger (per-peer damage counters,
// fallback flags, and re-promotion schedule) for an epoch checkpoint.
func (o *OSC) LedgerState() []byte { return o.heal.state() }

// RestoreLedger installs a checkpointed healing ledger, rolling the
// degradation decisions back to the committed epoch.
func (o *OSC) RestoreLedger(data []byte) error { return o.heal.restore(data) }

// Exchange performs the all-to-all: send[d] goes to rank d and must be
// size(d, me) bytes. The result, indexed by source, aliases the window
// buffer and is valid until the next Exchange. A nil send is the
// phantom exchange, the only one a phantom OSC runs: the same puts with
// no payloads, no healing, a plain fence and a nil result.
func (o *OSC) Exchange(send [][]byte) [][]byte {
	if send != nil && o.out == nil {
		panic("exchange: Exchange on a phantom OSC (use NewOSC)")
	}
	me := o.c.Rank()
	healing := send != nil && o.heal.active()
	if healing {
		o.heal.beginEpoch() // may re-enable demoted links whose probe is due
	}
	pending := 0
	flushAt := o.c.Now()
	for _, dst := range o.order {
		n := o.size(dst, me)
		var data []byte
		if send != nil {
			if data = send[dst]; len(data) != n {
				panic("exchange: send size does not match the OSC plan")
			}
		}
		if n == 0 {
			continue
		}
		if healing && o.heal.fellTo[dst] {
			// Downgraded link: two-sided, checksummed, retried.
			o.c.Send(dst, tagFallback, data)
			continue
		}
		done := o.win.PutLogical(dst, o.sendOff[dst], data, o.Logical(dst, me))
		if done > flushAt {
			flushAt = done
		}
		if pending++; o.FlushEvery > 0 && pending >= o.FlushEvery {
			o.flush(flushAt) // wait the completion of the node step
			pending = 0
		}
	}
	if !healing {
		o.win.Fence(o.expected)
	} else {
		rep := o.win.FenceChecked(o.heal.maskExpected(o.expected))
		o.heal.epilogue(damagedBy(make([]bool, len(o.recvSizes)), rep), o.recvSizes,
			func(d int) int { return o.size(d, me) },
			func(d int) []byte { return send[d] },
			o.place)
	}
	if send == nil {
		return nil
	}
	return o.out
}

// ExchangeN is Exchange(nil), the phantom exchange.
func (o *OSC) ExchangeN() { o.Exchange(nil) }

// place installs a two-sided payload into source s's window slot.
func (o *OSC) place(s int, data []byte) {
	if len(data) != o.recvSizes[s] {
		panic(fmt.Sprintf("exchange: payload from rank %d carried %d bytes, want %d", s, len(data), o.recvSizes[s]))
	}
	copy(o.out[s], data)
}

// flush waits until the outstanding puts completed at their targets and
// attributes the stall (if any) to the run's metrics and trace.
func (o *OSC) flush(flushAt float64) {
	o.c.CountFlush()
	now := o.c.Now()
	if stall := flushAt - now; stall > 0 {
		rk := o.c.Obs()
		rk.Span(obs.TrackHost, obs.PhaseFlush, now, flushAt, 0)
		rk.Add(metricFlushStalls, 1)
		rk.Observe(metricFlushStallS, stall)
	}
	o.c.AdvanceTo(flushAt)
}
