// Package exchange implements the all-to-all algorithms compared in the
// paper next to the default linear MPI_Alltoallv
// (mpi.Comm.AlltoallvLeased, the baseline whose bandwidth collapses at
// scale in Fig. 3): a pairwise ring, the log-round Bruck algorithm, the
// one-sided OSC_Alltoall of Algorithm 3 with node-aware ordering and
// window caching, and the compressed OSC exchange with the §V-B
// pipeline that overlaps GPU compression kernels with RDMA puts.
package exchange

import (
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
