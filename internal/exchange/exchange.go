// Package exchange implements the all-to-all algorithms compared in the
// paper next to the default linear MPI_Alltoallv
// (mpi.Comm.AlltoallvLeased, the baseline whose bandwidth collapses at
// scale in Fig. 3). It has three algorithm bodies, each run once:
//
//   - Ring: the one-sided OSC_Alltoall of Algorithm 3, with node-aware
//     ordering, window caching and the self-healing ladder;
//   - TwoSided: the linear all-to-all-v over a fixed sparse pattern;
//   - Bruck: the log-round aggregated algorithm for small messages.
//
// Every body moves its data through one seam, Payloads: it asks for a
// destination's bytes when it sends them and hands back each source's
// bytes as they land. The codec is a column of the body, not a body of
// its own: with a compress.Method, Ring and TwoSided encode each
// payload on a GPU stream (on the ring, the §V-B pipeline that overlaps
// compression kernels with RDMA puts) and decode it into memory the
// payload names; with none, payloads travel as their own bytes. OSC,
// CompressedOSC and the bandwidth harness are adapters over the bodies.
package exchange

import (
	"fmt"

	"repro/internal/compress"
	"repro/internal/gpu"
	"repro/internal/mem"
	"repro/internal/mpi"
)

// Fixed user tags; message matching is FIFO per (src, tag) so reuse
// across successive collective calls is safe.
const tagPairwise = 102

// Metric names of the exchange layer (constants so hot paths record
// without allocating).
const (
	metricFlushStalls  = "exchange/flush_stalls"
	metricFlushStallS  = "exchange/flush_stall_s"
	metricOverlapStall = "exchange/overlap_stall_s"
)

// SizeFn gives the bytes that rank dst receives from rank src in one
// exchange. Every rank builds its ring from the same SizeFn (derived
// from the globally known communication plan, e.g. the box
// decompositions of an FFT reshape), which is what lets origins compute
// remote window offsets without a handshake.
type SizeFn func(dst, src int) int

// Uniform returns the SizeFn of a uniform all-to-all (n bytes per pair).
func Uniform(n int) SizeFn {
	return func(dst, src int) int { return n }
}

// CountFn gives the number of float64 values rank dst receives from rank
// src in one exchange (the value-level analogue of SizeFn).
type CountFn func(dst, src int) int

// UniformCount returns the CountFn of a uniform exchange.
func UniformCount(n int) CountFn {
	return func(dst, src int) int { return n }
}

// Peer is one partner of a fixed pattern: its rank, the bytes the pair
// moves, and the bytes its wire is charged (the scaled-volume mode, see
// DESIGN.md; Bytes when unscaled).
type Peer struct{ Rank, Bytes, Logical int }

// Payloads is the seam every transport moves its data through, one peer
// at a time, so that no side holds a whole send or receive buffer of
// its own. The bytes of a codec column are float64 values
// (little-endian, mem.View), so they must be word-aligned.
type Payloads interface {
	// Send returns the bytes bound for rank dst: packed into buf, memory
	// the transport offers for them, or a view of memory the payload
	// holds, which must then stay unchanged until the exchange returns
	// (the transport may put it by reference). With buf nil (a codec
	// encodes them at once) they need only last until the next Send.
	Send(dst int, buf []byte) []byte
	// Recv returns the memory a codec decodes rank src's bytes into.
	Recv(src int) []byte
	// Received hands back rank src's bytes: as they landed, or decoded
	// into Recv(src). They are valid until Received returns.
	Received(src int, data []byte)
}

// Transport is one algorithm body built for a fixed pattern.
// ExchangeWith runs one all-to-all through io.
type Transport interface{ ExchangeWith(io Payloads) }

// Codec is the codec column of an algorithm body: the method each
// payload is encoded with, in kernels on Stream, reporting its
// achieved compression under Label. The zero Codec is the raw column:
// payloads travel as their own bytes, with no length header, no kernel
// and no compress/* metrics.
type Codec struct {
	Method compress.Method
	Stream *gpu.Stream
	Label  string
}

// sendOf returns io's n bytes for rank dst (see Payloads.Send), failing
// loudly on a payload of another size.
func sendOf(io Payloads, dst, n int, buf []byte) []byte {
	data := io.Send(dst, buf)
	if len(data) != n {
		panic(fmt.Sprintf("exchange: payload for rank %d holds %d bytes, the plan %d", dst, len(data), n))
	}
	return data
}

// whole is the Payloads of whole per-peer slices: Send(d) is send[d]'s
// memory, and each source's bytes land in (or decode into) out[s].
type whole[T mem.Word] struct{ send, out [][]T }

func (w *whole[T]) Send(dst int, _ []byte) []byte { return mem.View[byte](w.send[dst]) }
func (w *whole[T]) Recv(src int) []byte           { return mem.View[byte](w.out[src]) }

func (w *whole[T]) Received(src int, data []byte) {
	if out := mem.View[byte](w.out[src]); !sameMem(out, data) {
		copy(out, data)
	}
}

// sameMem reports whether a and b start at the same byte.
func sameMem(a, b []byte) bool { return len(a) > 0 && len(b) > 0 && &a[0] == &b[0] }

// PairwiseAlltoallv is the classic ring: p steps; at step j each rank
// sends to (r+j) mod p and receives from (r−j) mod p, completing each
// exchange before the next step. Bounded concurrency, two-sided. Like
// mpi.Comm.AlltoallvLeased, a nil send is the phantom exchange (it
// returns nil), and logical, when non-nil, gives each message's wire
// bytes in place of len(send[d]).
func PairwiseAlltoallv(c *mpi.Comm, send [][]byte, logical []int) [][]byte {
	p := c.Size()
	r := c.Rank()
	var recv [][]byte
	if send != nil {
		recv = make([][]byte, p)
	}
	latest := c.Now()
	for j := 0; j < p; j++ {
		dst := (r + j) % p
		src := (r - j + p) % p
		var data []byte
		if send != nil {
			data = send[dst]
		}
		n := len(data)
		if logical != nil {
			n = logical[dst]
		}
		c.SendLogical(dst, tagPairwise, data, n)
		pkt := c.RecvPacket(src, tagPairwise)
		if recv != nil {
			recv[src] = pkt.Payload
		}
		if pkt.Arrival > latest {
			latest = pkt.Arrival
		}
	}
	c.AdvanceTo(latest)
	return recv
}

// ringOrder returns the destination sequence of Algorithm 3: node
// distances 1..n (self node last... the paper iterates j=1..n including
// the local node), and within each target node a rotation of the local
// index so no two ranks of one node hit the same remote rank at once.
// nodeAware=false degenerates to the naive rank ring (r+1, r+2, ...),
// the ablation of the architecture-aware permutation.
func ringOrder(c *mpi.Comm, nodeAware bool) []int {
	p := c.Size()
	r := c.Rank()
	if !nodeAware {
		order := make([]int, p)
		for i := 0; i < p; i++ {
			order[i] = (r + i + 1) % p
		}
		return order
	}
	cfg := c.Config()
	gpn := cfg.GPUsPerNode
	myNode := c.Node()
	local := r % gpn
	order := make([]int, 0, p)
	for j := 1; j <= cfg.Nodes; j++ {
		node := (myNode + j) % cfg.Nodes
		for i := 0; i < gpn; i++ {
			dest := node*gpn + (local+i)%gpn
			if dest < p {
				order = append(order, dest)
			}
		}
	}
	return order
}
