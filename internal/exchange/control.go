package exchange

import (
	"encoding/binary"
	"fmt"
	"math"

	"repro/internal/mpi"
)

const tagCtlOffset = 103

// exchangeOffsets distributes window placement at plan time: every rank
// tells each of its sources where that source's slot starts in this
// rank's window, and learns from each of its destinations where its own
// data must land there. Source s's slot of the local window is
// [slotOff[s], slotOff[s+1]) (it has one if that is not empty);
// sendSizes[d] > 0 marks the destinations this rank sends to. The
// returned slice holds this rank's put offset per destination.
//
// This is the one-time handshake a cached-window implementation pays at
// plan creation (§V-A); Exchange itself stays handshake-free.
func exchangeOffsets(c *mpi.Comm, slotOff, sendSizes []int) []int {
	var msg [8]byte
	for s := 0; s+1 < len(slotOff); s++ {
		if slotOff[s+1] > slotOff[s] {
			binary.LittleEndian.PutUint64(msg[:], uint64(slotOff[s]))
			c.Send(s, tagCtlOffset, msg[:])
		}
	}
	sendOff := make([]int, len(sendSizes))
	for d, n := range sendSizes {
		if n > 0 {
			got := c.Recv(d, tagCtlOffset)
			// The handshake seeds every later put's placement, so a mangled
			// control message must fail here, loudly, not as a corrupted
			// window a million virtual seconds later.
			if len(got) != 8 {
				panic(fmt.Sprintf("exchange: offset handshake from rank %d carried %d bytes, want 8", d, len(got)))
			}
			off := binary.LittleEndian.Uint64(got)
			if off > math.MaxInt64/2 {
				panic(fmt.Sprintf("exchange: offset handshake from rank %d carried implausible offset %#x", d, off))
			}
			sendOff[d] = int(off)
		}
	}
	return sendOff
}
