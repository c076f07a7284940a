package exchange

import (
	"math/bits"

	"repro/internal/mem"
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
// A Bruck keeps its state across calls: its area, where the blocks are
// packed and rotated in place, and the rounds' messages, each allocated
// by the first exchange that needs it. A round's message reaches its
// receiver as-is, so it goes out under a send-completion lease
// (mpi.LeasedBuf), which the receiver frees once it has copied the
// blocks out; a message whose lease is still busy goes out in a fresh
// buffer for that call.
type Bruck struct {
	c              *mpi.Comm
	block, logical int
	lease          int      // round i's message goes out under lease+i
	msgs           [][]byte // per-round messages
	area           []byte   // p blocks, block d bound for rank d
}

// NewBruck builds the exchange of blockSize-byte blocks (each charged
// logicalBlock wire bytes) on c and registers its leases.
func NewBruck(c *mpi.Comm, blockSize, logicalBlock int) *Bruck {
	rounds := bits.Len(uint(c.Size() - 1))
	return &Bruck{c: c, block: blockSize, logical: logicalBlock, lease: c.NewLeases(rounds),
		msgs: make([][]byte, rounds)}
}

// ExchangeWith runs one all-to-all over io: rank d's payload, at most
// one block, is packed at the start of block d of the area (the bytes
// past it travel but mean nothing), the rounds run in place, and each
// source's block goes back through io.Received, which reads its own
// payload's length from the front of it. A nil io is the phantom
// exchange: the same rounds and wire sizes, with no payloads; with
// blocks of no bytes, a real exchange moves nothing at all.
func (b *Bruck) ExchangeWith(io Payloads) {
	c, bs := b.c, b.block
	p, r := c.Size(), c.Rank()
	if io != nil {
		if bs == 0 {
			return
		}
		if b.area == nil {
			b.area = mem.Bytes(p * bs)
		}
		for d := 0; d < p; d++ {
			block := b.area[d*bs : (d+1)*bs : (d+1)*bs]
			data := io.Send(d, block)
			if len(data) > bs {
				panic("exchange: Bruck requires one uniform block per rank")
			}
			if !sameMem(data, block) {
				copy(block, data)
			}
		}
	}
	// Slot j of the rotation is the block bound for rank (r + j) mod p.
	slot := func(j int) []byte {
		d := (r + j) % p
		return b.area[d*bs : (d+1)*bs : (d+1)*bs]
	}

	// ⌈log2 p⌉ rounds: send every slot whose index has bit k set to rank
	// (r + k) mod p, packed into one message, and replace those slots by
	// the ones rank (r − k) mod p sends.
	for round, k := 0, 1; k < p; round, k = round+1, k<<1 {
		// n slots have bit k set; j = (j+1)|k visits them in order.
		n := p/(2*k)*k + max(0, p%(2*k)-k)
		var msg []byte
		lease := 0
		if io != nil {
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
		if io != nil {
			for j, at := k, 0; j < p; j = (j + 1) | k {
				at += copy(slot(j), pkt.Payload[at:])
			}
			c.ReleasePacket(pkt)
		}
	}
	if io == nil {
		return
	}

	// Inverse rotation: slot j now holds the block that originated at
	// rank (r − j) mod p.
	for j := 0; j < p; j++ {
		io.Received((r-j+p)%p, slot(j))
	}
}
