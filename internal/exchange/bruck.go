package exchange

import (
	"repro/internal/mem"
	"repro/internal/mpi"
)

const tagBruck = 104

// BruckAlltoall is the Bruck algorithm for the uniform all-to-all:
// ⌈log2 p⌉ rounds of aggregated messages instead of p−1 point-to-point
// exchanges, trading extra volume (each block travels up to log p hops)
// for far fewer messages. It is the classic choice for the small-message
// regime where the per-message costs that Fig. 3 exposes dominate.
// Every rank contributes one block of blockSize bytes per destination.
// Each block is charged logicalBlock wire bytes — the scaled-volume
// mode: payloads stay real at blockSize while the time plane sees each
// block as logicalBlock bytes; pass blockSize for an unscaled exchange.
// A nil send is the phantom exchange: the same rounds and wire sizes,
// no payloads, and a nil result.
func BruckAlltoall(c *mpi.Comm, send [][]byte, blockSize, logicalBlock int) [][]byte {
	p := c.Size()
	r := c.Rank()
	for _, b := range send {
		if len(b) != blockSize {
			panic("exchange: BruckAlltoall requires uniform block sizes")
		}
	}

	// Phase 1 — local rotation: slot j holds the block destined to rank
	// (r + j) mod p. The slots share one word-aligned allocation, so a
	// receiver whose block size is a whole number of elements may view
	// each result block as those elements (mem.View).
	var blocks [][]byte
	if send != nil {
		all := mem.Bytes(p * blockSize)
		blocks = make([][]byte, p)
		for j := 0; j < p; j++ {
			blocks[j] = all[j*blockSize : (j+1)*blockSize : (j+1)*blockSize]
			copy(blocks[j], send[(r+j)%p])
		}
	}

	// Phase 2 — ⌈log2 p⌉ rounds: send every slot whose index has bit k
	// set to rank (r + k) mod p, packed into one message.
	round := 0
	for k := 1; k < p; k <<= 1 {
		dst := (r + k) % p
		src := (r - k + p) % p
		var outIdx []int
		for j := 0; j < p; j++ {
			if j&k != 0 {
				outIdx = append(outIdx, j)
			}
		}
		var packed []byte
		if blocks != nil {
			packed = make([]byte, 0, len(outIdx)*blockSize)
			for _, j := range outIdx {
				packed = append(packed, blocks[j]...)
			}
		}
		c.SendLogical(dst, tagBruck+round, packed, len(outIdx)*logicalBlock)
		got := c.Recv(src, tagBruck+round)
		if blocks != nil {
			for i, j := range outIdx {
				copy(blocks[j], got[i*blockSize:(i+1)*blockSize])
			}
		}
		round++
	}
	if blocks == nil {
		return nil
	}

	// Phase 3 — inverse rotation: slot j now holds the block that
	// originated at rank (r − j) mod p.
	recv := make([][]byte, p)
	for j := 0; j < p; j++ {
		recv[(r-j+p)%p] = blocks[j]
	}
	return recv
}
