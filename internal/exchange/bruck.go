package exchange

import (
	"math/bits"

	"repro/internal/mpi"
)

const tagBruck = 104

// Bruck is the Bruck algorithm for the uniform all-to-all: ⌈log2 p⌉
// rounds of aggregated messages instead of p−1 point-to-point
// exchanges, trading extra volume (each block travels up to log p hops)
// for far fewer messages. It is the classic choice for the small-message
// regime where the per-message costs that Fig. 3 exposes dominate.
// Every rank contributes one block of blockSize bytes per destination.
// Each block is charged logicalBlock wire bytes — the scaled-volume
// mode: payloads stay real at blockSize while the time plane sees each
// block as logicalBlock bytes; pass blockSize for an unscaled exchange.
//
// A Bruck keeps its state across calls: the rounds' messages and the
// result table. A round's message reaches its receiver as-is, so it
// goes out under a send-completion lease (mpi.LeasedBuf), which the
// receiver frees once it has copied the blocks out; a message whose
// lease is still busy goes out in a fresh buffer for that call.
type Bruck struct {
	c              *mpi.Comm
	block, logical int
	lease          int      // round i's message goes out under lease+i
	msgs           [][]byte // per-round messages, allocated by the first call
	recv           [][]byte // per-source result views
}

// NewBruck builds the exchange of blockSize-byte blocks (each charged
// logicalBlock wire bytes) on c and registers its leases.
func NewBruck(c *mpi.Comm, blockSize, logicalBlock int) *Bruck {
	rounds := bits.Len(uint(c.Size() - 1))
	return &Bruck{c: c, block: blockSize, logical: logicalBlock, lease: c.NewLeases(rounds),
		msgs: make([][]byte, rounds), recv: make([][]byte, c.Size())}
}

// Exchange runs one all-to-all over area: p blocks of blockSize bytes,
// block d bound for rank d. It works in place — area ends up holding the
// blocks the other ranks sent — and returns one view of area per source
// rank, reused by the next call, so a receiver whose block size is a
// whole number of elements may view each as those elements when area is
// word-aligned (mem.Bytes). A nil area is the phantom exchange: the same
// rounds and wire sizes, no payloads, and a nil result.
func (b *Bruck) Exchange(area []byte) [][]byte {
	c, bs := b.c, b.block
	p, r := c.Size(), c.Rank()
	if area != nil && len(area) != p*bs {
		panic("exchange: Bruck requires one uniform block per rank")
	}
	// Slot j of the rotation is the block bound for rank (r + j) mod p.
	slot := func(j int) []byte {
		d := (r + j) % p
		return area[d*bs : (d+1)*bs : (d+1)*bs]
	}

	// ⌈log2 p⌉ rounds: send every slot whose index has bit k set to rank
	// (r + k) mod p, packed into one message, and replace those slots by
	// the ones rank (r − k) mod p sends.
	for round, k := 0, 1; k < p; round, k = round+1, k<<1 {
		// n slots have bit k set; j = (j+1)|k visits them in order.
		n := p/(2*k)*k + max(0, p%(2*k)-k)
		var msg []byte
		lease := 0
		if area != nil {
			if b.msgs[round] == nil {
				b.msgs[round] = make([]byte, n*bs)
			}
			msg, lease = c.LeasedBuf(b.lease+round, b.msgs[round])
			for j, at := k, 0; j < p; j = (j + 1) | k {
				at += copy(msg[at:], slot(j))
			}
		}
		c.SendLeased((r+k)%p, tagBruck+round, msg, n*b.logical, lease)
		pkt := c.RecvPacket((r-k+p)%p, tagBruck+round)
		if area != nil {
			for j, at := k, 0; j < p; j = (j + 1) | k {
				at += copy(slot(j), pkt.Payload[at:])
			}
			c.ReleasePacket(pkt)
		}
	}
	if area == nil {
		return nil
	}

	// Inverse rotation: slot j now holds the block that originated at
	// rank (r − j) mod p.
	for j := 0; j < p; j++ {
		b.recv[(r-j+p)%p] = slot(j)
	}
	return b.recv
}
