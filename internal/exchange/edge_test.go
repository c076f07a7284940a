package exchange

import (
	"bytes"
	"testing"

	"repro/internal/mpi"
)

// TestSplitGroupsEdgeCases: the chunking helper must degrade gracefully
// at the boundaries the autotuner's candidate space can reach.
func TestSplitGroupsEdgeCases(t *testing.T) {
	// chunks == 1: one group, the whole order, unreordered.
	order := []int{4, 0, 2, 1, 3}
	one := splitGroups(order, 1)
	if len(one) != 1 || len(one[0]) != len(order) {
		t.Fatalf("chunks=1: %v", one)
	}
	for i, v := range one[0] {
		if v != order[i] {
			t.Fatalf("chunks=1 reorders: %v", one)
		}
	}
	// chunks > len(order): one singleton group per destination, none
	// empty.
	many := splitGroups(order, 100)
	if len(many) != len(order) {
		t.Fatalf("chunks>len: got %d groups", len(many))
	}
	for i, g := range many {
		if len(g) != 1 || g[0] != order[i] {
			t.Fatalf("chunks>len: %v", many)
		}
	}
	// Empty order: no groups, no panic.
	if got := splitGroups(nil, 4); len(got) != 0 {
		t.Fatalf("empty order: %v", got)
	}
	if got := splitGroups([]int{}, 1); len(got) != 0 {
		t.Fatalf("empty order, k=1: %v", got)
	}
	// Groups always partition the order exactly, for every k.
	for k := 1; k <= 8; k++ {
		var flat []int
		for _, g := range splitGroups(order, k) {
			if len(g) == 0 {
				t.Fatalf("k=%d: empty group", k)
			}
			flat = append(flat, g...)
		}
		if len(flat) != len(order) {
			t.Fatalf("k=%d: lost destinations: %v", k, flat)
		}
		for i, v := range flat {
			if v != order[i] {
				t.Fatalf("k=%d: reordered: %v", k, flat)
			}
		}
	}
}

// TestBruckMatchesTwoSidedPayloads: on identical uniform send buffers
// the Bruck algorithm must deliver byte-identical payloads to the
// classical two-sided all-to-all — the equivalence the tuner relies on
// when it swaps one for the other.
func TestBruckMatchesTwoSidedPayloads(t *testing.T) {
	cfg := machine(2) // 12 ranks
	p := cfg.Ranks()
	const bs = 40
	gather := func(run func(c *mpi.Comm, send [][]byte) [][]byte) [][][]byte {
		out := make([][][]byte, p)
		mpi.Run(cfg, func(c *mpi.Comm) {
			send := make([][]byte, p)
			for d := 0; d < p; d++ {
				send[d] = payload(c.Rank(), d, bs)
			}
			recv := run(c, send)
			cp := make([][]byte, p)
			for s := range recv {
				cp[s] = append([]byte(nil), recv[s]...)
			}
			out[c.Rank()] = cp
		})
		return out
	}
	twosided := gather(func(c *mpi.Comm, send [][]byte) [][]byte { return c.AlltoallvSparse(send, nil, nil) })
	bruck := gather(func(c *mpi.Comm, send [][]byte) [][]byte {
		return bruckAlltoall(c, send, bs, bs)
	})
	for r := 0; r < p; r++ {
		for s := 0; s < p; s++ {
			if !bytes.Equal(twosided[r][s], bruck[r][s]) {
				t.Fatalf("rank %d from %d: bruck payload differs from two-sided", r, s)
			}
		}
	}
}

// TestBruckLogicalPayloadsAndTiming: the scaled-volume variant carries
// the same real payloads while charging the logical volume — a larger
// logical block must cost more virtual time, never corrupt data.
func TestBruckLogicalPayloadsAndTiming(t *testing.T) {
	cfg := machine(1)
	p := cfg.Ranks()
	const bs = 32
	run := func(logical int) (time float64) {
		res := mpi.Run(cfg, func(c *mpi.Comm) {
			send := make([][]byte, p)
			for d := 0; d < p; d++ {
				send[d] = payload(c.Rank(), d, bs)
			}
			recv := bruckAlltoall(c, send, bs, logical)
			for s := 0; s < p; s++ {
				if !bytes.Equal(recv[s], payload(s, c.Rank(), bs)) {
					t.Errorf("logical=%d rank %d from %d corrupt", logical, c.Rank(), s)
				}
			}
		})
		return res.Time
	}
	tSame := run(bs)
	tBig := run(64 * bs)
	if tBig <= tSame {
		t.Errorf("logical 64x block not slower: %.3g vs %.3g", tBig, tSame)
	}
}
