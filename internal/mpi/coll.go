package mpi

import (
	"encoding/binary"
	"math"

	"repro/internal/netsim"
)

// Barrier synchronizes all ranks with the dissemination algorithm
// (⌈log2 p⌉ rounds of small messages), which works for any rank count.
func (c *Comm) Barrier() {
	p := c.Size()
	if p == 1 {
		return
	}
	epoch := c.barrierEpoch
	c.barrierEpoch++
	r := c.Rank()
	round := 0
	for k := 1; k < p; k <<= 1 {
		tag := tagBarrier + epoch<<6 + round
		c.sendInternal((r+k)%p, tag, nil, 0)
		c.recvInternal((r-k+p)%p, tag)
		round++
	}
}

// collTag returns a fresh internal tag for one collective invocation.
// Every rank calls collectives in the same order, so epochs agree.
func (c *Comm) collTag() int {
	t := tagCollBase + c.collEpoch<<6
	c.collEpoch++
	return t
}

// AllreduceFloat64 combines one value per rank with op ("sum", "max",
// "min") and returns the result on every rank, using recursive doubling
// (with the standard fold step for non-power-of-two rank counts).
func (c *Comm) AllreduceFloat64(op string, v float64) float64 {
	p := c.Size()
	r := c.Rank()
	tag := c.collTag()
	combine := func(a, b float64) float64 {
		switch op {
		case "sum":
			return a + b
		case "max":
			return math.Max(a, b)
		case "min":
			return math.Min(a, b)
		}
		panic("mpi: unknown reduction op " + op)
	}
	send := func(dst int, x float64, round int) {
		var buf [8]byte
		binary.LittleEndian.PutUint64(buf[:], math.Float64bits(x))
		c.sendInternal(dst, tag+round, buf[:], 8)
	}
	recv := func(src, round int) float64 {
		return math.Float64frombits(binary.LittleEndian.Uint64(c.recvInternal(src, tag+round).Payload))
	}

	pof2 := 1
	for pof2*2 <= p {
		pof2 *= 2
	}
	rem := p - pof2
	acc := v
	newRank := -1
	switch {
	case r < 2*rem && r%2 != 0: // folds into the left neighbour
		send(r-1, acc, 0)
	case r < 2*rem: // absorbs the right neighbour
		acc = combine(acc, recv(r+1, 0))
		newRank = r / 2
	default:
		newRank = r - rem
	}
	if newRank >= 0 {
		oldOf := func(nr int) int {
			if nr < rem {
				return 2 * nr
			}
			return nr + rem
		}
		round := 1
		for mask := 1; mask < pof2; mask <<= 1 {
			partner := oldOf(newRank ^ mask)
			send(partner, acc, round)
			acc = combine(acc, recv(partner, round))
			round++
		}
	}
	// Hand results back to the folded ranks.
	if r < 2*rem {
		if r%2 == 0 {
			send(r+1, acc, 63)
		} else {
			acc = recv(r-1, 63)
		}
	}
	return acc
}

// Alltoallv is the baseline generalized all-to-all: the default linear
// algorithm of Open MPI's basic module, which posts every send up front
// (flooding the fabric — this is the behaviour whose degradation Fig. 3
// shows) and then drains every receive. send[d] is the payload for rank
// d; the returned slice holds one received payload per source rank.
func (c *Comm) Alltoallv(send [][]byte) [][]byte {
	return c.alltoallvImpl(send, nil, nil, c.collTag(), false, nil)
}

// AlltoallvSparse is Alltoallv for callers that know the global pattern
// (as MPI_Alltoallv's count arrays provide): empty sends are skipped,
// and only sources with recvNonzero[src] are drained. logical, when
// non-nil, overrides each message's on-the-wire size for timing (the
// scaled-volume experiment mode).
func (c *Comm) AlltoallvSparse(send [][]byte, recvNonzero []bool, logical []int) [][]byte {
	return c.alltoallvImpl(send, nil, recvNonzero, c.collTag(), false, logical)
}

// AlltoallvN is the phantom variant of Alltoallv: sizes[d] logical bytes
// are sent to each rank d with no payload. It returns nothing.
func (c *Comm) AlltoallvN(sizes []int) {
	c.alltoallvImpl(nil, sizes, nil, c.collTag(), true, nil)
}

func (c *Comm) alltoallvImpl(send [][]byte, sizes []int, recvNonzero []bool, base int, phantom bool, logicalSizes []int) [][]byte {
	p := c.Size()
	r := c.Rank()
	logical := func(dst int) int {
		switch {
		case phantom:
			return sizes[dst]
		case logicalSizes != nil:
			return logicalSizes[dst]
		default:
			return len(send[dst])
		}
	}
	sparse := recvNonzero != nil
	// Post all sends in rank order, self first (mirrors the basic
	// linear implementation); sparse mode skips empty peers.
	active := 0
	for i := 0; i < p; i++ {
		dst := (r + i) % p
		n := logical(dst)
		if sparse && n == 0 {
			continue
		}
		active++
		var payload []byte
		if !phantom {
			payload = send[dst]
		}
		lat, proto := c.rendezvousCost(dst, n)
		c.sendMsg(dst, base, netsim.SendOpts{Payload: payload, Bytes: n, ExtraLatency: lat, ProtoOverhead: proto})
	}
	// Every arrival is matched against the posted-receive list, whose
	// length here is the number of active peers — the per-message
	// matching cost that grows with scale and throttles the default
	// all-to-all (one-sided puts bypass it entirely).
	cfg := c.Config()
	matchCost := 0.0
	if cfg.MatchCost > 0 {
		depth := active
		if cfg.MatchQueueCap > 0 && depth > cfg.MatchQueueCap {
			depth = cfg.MatchQueueCap
		}
		matchCost = cfg.MatchCost * float64(depth)
	}
	recv := make([][]byte, p)
	latest := c.Now()
	for i := 0; i < p; i++ {
		src := (r - i + p) % p
		if sparse && !recvNonzero[src] {
			continue
		}
		pkt := c.recvInternal(src, base)
		c.Elapse(matchCost)
		recv[src] = pkt.Payload
		if pkt.Arrival > latest {
			latest = pkt.Arrival
		}
	}
	c.AdvanceTo(latest)
	if phantom {
		return nil
	}
	return recv
}
