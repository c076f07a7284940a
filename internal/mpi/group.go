package mpi

import (
	"fmt"
	"sort"
)

// ULFM-style communicator shrink. When a rank dies permanently (its
// respawn budget is exhausted — see internal/recover), the survivors
// agree on the reduced membership and continue on a sub-communicator
// whose local ranks are dense 0..S-1, the analogue of
// MPIX_Comm_agree + MPIX_Comm_shrink. The sub-communicator translates
// local ranks to global wire ranks on every operation and offsets all
// tags into a fresh generation, so no traffic of the old membership can
// ever match the new one.

// GlobalRank returns the calling rank's world (wire) rank, which never
// changes across shrinks. Identical to Rank on the world communicator.
func (c *Comm) GlobalRank() int { return c.p.Rank() }

// members returns this communicator's membership as explicit global
// ranks (the world communicator materializes 0..P-1).
func (c *Comm) members() []int {
	if c.group != nil {
		return c.group
	}
	all := make([]int, c.p.Size())
	for i := range all {
		all[i] = i
	}
	return all
}

// Shrink agrees on the surviving membership and returns the shrunken
// communicator. dead lists suspected-dead global ranks; every surviving
// member of the current communicator must call Shrink, and the
// fault-tolerant agreement round ORs the suspect sets so a failure seen
// by any one survivor excludes the rank everywhere — the collective
// cannot complete with survivors holding different memberships. The
// calling rank must not be in the agreed dead set, and at least one
// rank must survive; both are programming errors and panic.
//
// The returned communicator has dense local ranks 0..S-1 in ascending
// global-rank order, fresh collective/window epochs, fresh reliable
// sequence spaces, and a new tag generation. The parent communicator
// must not be used for further communication once Shrink returns.
func (c *Comm) Shrink(dead []int) *Comm {
	suspects := make(map[int]bool, len(dead))
	for _, r := range dead {
		suspects[r] = true
	}
	for {
		sc := c.subComm(suspects)
		// Agreement: dissemination allreduce-OR of the suspect bitmask
		// over the provisional survivor group. OR is idempotent, so the
		// dissemination pattern converges to the full union in ⌈log2 S⌉
		// rounds. A survivor that learned of an extra failure grows the
		// mask everywhere; everyone then re-shrinks from the union.
		mask := make([]byte, c.p.Size())
		for r := range suspects {
			mask[r] = 1
		}
		agreed := sc.agreeMask(mask)
		grew := false
		for r, b := range agreed {
			if b != 0 && !suspects[r] {
				suspects[r] = true
				grew = true
			}
		}
		if !grew {
			return sc
		}
	}
}

// subComm builds the provisional shrunken communicator excluding the
// suspect set.
func (c *Comm) subComm(suspects map[int]bool) *Comm {
	if suspects[c.GlobalRank()] {
		panic(fmt.Sprintf("mpi: rank %d cannot shrink away itself", c.GlobalRank()))
	}
	var group []int
	for _, r := range c.members() {
		if !suspects[r] {
			group = append(group, r)
		}
	}
	sort.Ints(group)
	if len(group) == 0 {
		panic("mpi: shrink would leave no survivors")
	}
	lrank := -1
	for i, r := range group {
		if r == c.GlobalRank() {
			lrank = i
		}
	}
	sc := &Comm{
		p:              c.p,
		obs:            c.obs,
		eagerThreshold: c.eagerThreshold,
		winCreateCost:  c.winCreateCost,
		group:          group,
		lrank:          lrank,
		gen:            c.gen + 1,
		reliable:       c.reliable,
		retry:          c.retry,
	}
	if sc.reliable {
		sc.sendSeq = make(map[seqKey]uint32)
		sc.recvSeq = make(map[seqKey]uint32)
	}
	return sc
}

// agreeMask ORs each survivor's suspect bitmask across the provisional
// group with the dissemination pattern (the Barrier exchange, carrying
// the mask as payload) and returns the union known to this rank.
func (sc *Comm) agreeMask(mask []byte) []byte {
	p := sc.Size()
	if p == 1 {
		return mask
	}
	epoch := sc.collEpoch
	sc.collEpoch++
	r := sc.Rank()
	round := 0
	for k := 1; k < p; k <<= 1 {
		tag := tagCollBase + epoch<<6 + round
		// Copy before sending: payload delivery is zero-copy in the
		// simulator, and the mask is mutated as later rounds merge.
		sc.sendInternal((r+k)%p, tag, append([]byte(nil), mask...), len(mask))
		got := sc.recvInternal((r-k+p)%p, tag).Payload
		for i, b := range got {
			if b != 0 {
				mask[i] = 1
			}
		}
		round++
	}
	return mask
}
