package mpi

import (
	"sync"

	"repro/internal/mem"
)

// Send completion for reusable send buffers. A two-sided payload reaches
// its receiver zero-copy (netsim hands the sender's slice over as-is), so
// a sender that packs the same buffer on every call may overwrite it only
// once the receiver has finished reading the previous contents. A lease
// is that handshake for one buffer:
//
//   - the owner registers its buffers once (NewLeases) and, before
//     packing one, asks LeasedBuf for it: the buffer itself while its
//     lease is free, which takes the lease, otherwise — the receiver
//     lags behind, or the packet was dropped — a fresh buffer that goes
//     out without a lease;
//   - AlltoallvLeased carries each payload's lease id in Packet.Meta,
//     which two-sided sends leave unused;
//   - the receiver calls ReleaseRecv once it has unpacked the payloads,
//     which frees every lease they carried.
//
// Nothing blocks on a lease and no lease operation touches a virtual
// clock, so timing is identical to fresh buffers on every call.

// leaseTable is one rank's leases: busy[id-1] is set from the owner's
// LeasedBuf until the buffer's receiver releases it. The Run shares one
// table per rank between all ranks (receivers release into the sender's
// table), so every access holds mu: the engine hands the baton between
// rank goroutines, and the lock is what orders their accesses for the
// race detector.
type leaseTable struct {
	mu   sync.Mutex
	busy []bool
}

// heldLease is a delivered payload's lease, owned by rank src.
type heldLease struct{ src, id int }

// NewLeases registers n leases owned by the calling rank, one per
// reusable send buffer, and returns the first id; the others follow
// consecutively. Ids are positive: a lease entry of 0 means none.
func (c *Comm) NewLeases(n int) int {
	t := &c.leases[c.Rank()]
	t.mu.Lock()
	defer t.mu.Unlock()
	first := len(t.busy) + 1
	t.busy = append(t.busy, make([]bool, n)...)
	return first
}

// LeasedBuf returns the buffer to pack the next payload of the calling
// rank's lease id into, and the lease to send it under. When own may be
// overwritten — it was never sent, or the receiver of its last send has
// released it — that is own and id, and the lease is taken: the caller
// must send own under it. Otherwise it is a fresh buffer of the same
// length and no lease (0), allocated by mem.Bytes so that a receiver may
// view it as the elements the caller packs into it.
func (c *Comm) LeasedBuf(id int, own []byte) ([]byte, int) {
	t := &c.leases[c.Rank()]
	t.mu.Lock()
	busy := t.busy[id-1]
	t.busy[id-1] = true
	t.mu.Unlock()
	if busy {
		return mem.Bytes(len(own)), 0
	}
	return own, id
}

// ReleaseRecv frees the leases of every payload this rank's alltoallvs
// delivered since its last ReleaseRecv. The caller must be done reading
// those payloads: their senders overwrite them on their next call.
func (c *Comm) ReleaseRecv() {
	for _, h := range c.held {
		t := &c.leases[h.src]
		t.mu.Lock()
		t.busy[h.id-1] = false
		t.mu.Unlock()
	}
	c.held = c.held[:0]
}
