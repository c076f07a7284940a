package grid

import (
	"math/rand"
	"testing"
	"testing/quick"
)

// randBoxIn returns a random non-empty sub-box of the given box.
func randBoxIn(rng *rand.Rand, outer Box) Box {
	var b Box
	for d := 0; d < 3; d++ {
		size := outer.Size(d)
		lo := outer.Lo[d] + rng.Intn(size)
		hi := lo + 1 + rng.Intn(outer.Hi[d]-lo)
		b.Lo[d], b.Hi[d] = lo, hi
	}
	return b
}

func randOrder(rng *rand.Rand) Order {
	perms := []Order{{0, 1, 2}, {0, 2, 1}, {1, 0, 2}, {1, 2, 0}, {2, 0, 1}, {2, 1, 0}}
	return perms[rng.Intn(len(perms))]
}

// TestPackUnpackFuzz round-trips random sub-boxes through random source
// and destination layouts.
func TestPackUnpackFuzz(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		outer := Box{Hi: [3]int{3 + rng.Intn(6), 3 + rng.Intn(6), 3 + rng.Intn(6)}}
		sub := randBoxIn(rng, outer)
		srcOrder, dstOrder := randOrder(rng), randOrder(rng)

		src := make([]int, outer.Count())
		for i := outer.Lo[0]; i < outer.Hi[0]; i++ {
			for j := outer.Lo[1]; j < outer.Hi[1]; j++ {
				for k := outer.Lo[2]; k < outer.Hi[2]; k++ {
					src[srcOrder.Index(outer, [3]int{i, j, k})] = encode(i, j, k)
				}
			}
		}
		buf := make([]int, sub.Count())
		if Pack(src, outer, srcOrder, sub, dstOrder, buf) != sub.Count() {
			return false
		}
		dst := make([]int, outer.Count())
		if Unpack(buf, sub, dst, outer, dstOrder) != sub.Count() {
			return false
		}
		for i := sub.Lo[0]; i < sub.Hi[0]; i++ {
			for j := sub.Lo[1]; j < sub.Hi[1]; j++ {
				for k := sub.Lo[2]; k < sub.Hi[2]; k++ {
					if dst[dstOrder.Index(outer, [3]int{i, j, k})] != encode(i, j, k) {
						return false
					}
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// TestReshapePlanFuzz: for random grids and rank counts, every pair of
// decompositions yields conserving, symmetric plans.
func TestReshapePlanFuzz(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := [3]int{2 + rng.Intn(14), 2 + rng.Intn(14), 2 + rng.Intn(14)}
		p := 1 + rng.Intn(16)
		var from, to []Box
		if rng.Intn(2) == 0 {
			from = Bricks(n, Factor3(p))
		} else {
			from = Pencils(n, rng.Intn(3), p)
		}
		to = Pencils(n, rng.Intn(3), p)

		totalSend, totalRecv := 0, 0
		for me := 0; me < p; me++ {
			pl := NewPlan(me, from, to)
			if pl.SendTotal != from[me].Count() || pl.RecvTotal != to[me].Count() {
				return false
			}
			totalSend += pl.SendTotal
			totalRecv += pl.RecvTotal
		}
		return totalSend == n[0]*n[1]*n[2] && totalRecv == totalSend
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Error(err)
	}
}

// TestOrderIndexBijective: Index enumerates each box cell exactly once.
func TestOrderIndexBijective(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		b := Box{Lo: [3]int{rng.Intn(5), rng.Intn(5), rng.Intn(5)}}
		for d := 0; d < 3; d++ {
			b.Hi[d] = b.Lo[d] + 1 + rng.Intn(5)
		}
		o := randOrder(rng)
		seen := make([]bool, b.Count())
		for i := b.Lo[0]; i < b.Hi[0]; i++ {
			for j := b.Lo[1]; j < b.Hi[1]; j++ {
				for k := b.Lo[2]; k < b.Hi[2]; k++ {
					idx := o.Index(b, [3]int{i, j, k})
					if idx < 0 || idx >= len(seen) || seen[idx] {
						return false
					}
					seen[idx] = true
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// FuzzPackUnpack holds Pack and Unpack, which step through a sub-box
// with strides computed once, to a per-element Order.Index reference:
// for a random box at a random origin, a random (possibly empty)
// sub-box, random source and destination layouts and a random receiving
// box around the sub-box, Pack must list the sub-box's elements in
// destination order, and Unpack must put each one at its Index in the
// receiving box and touch nothing else.
func FuzzPackUnpack(f *testing.F) {
	for _, seed := range []int64{0, 1, 2, 42} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, seed int64) {
		rng := rand.New(rand.NewSource(seed))
		around := func(in Box, pad int) Box {
			var b Box
			for d := 0; d < 3; d++ {
				b.Lo[d] = in.Lo[d] - rng.Intn(pad+1)
				b.Hi[d] = in.Hi[d] + rng.Intn(pad+1)
			}
			return b
		}
		var sub Box
		for d := 0; d < 3; d++ {
			sub.Lo[d] = rng.Intn(6)
			sub.Hi[d] = sub.Lo[d] + rng.Intn(7) // empty when 0
		}
		srcBox, dstBox := around(sub, 4), around(sub, 4)
		srcOrder, dstOrder := randOrder(rng), randOrder(rng)

		src := make([]int, srcBox.Count())
		for i := range src {
			src[i] = i + 1
		}
		var want []int
		var c [3]int
		a0, a1, a2 := dstOrder[0], dstOrder[1], dstOrder[2]
		for c[a2] = sub.Lo[a2]; c[a2] < sub.Hi[a2]; c[a2]++ {
			for c[a1] = sub.Lo[a1]; c[a1] < sub.Hi[a1]; c[a1]++ {
				for c[a0] = sub.Lo[a0]; c[a0] < sub.Hi[a0]; c[a0]++ {
					want = append(want, src[srcOrder.Index(srcBox, c)])
				}
			}
		}
		packed := make([]int, sub.Count())
		if n := Pack(src, srcBox, srcOrder, sub, dstOrder, packed); n != len(want) {
			t.Fatalf("Pack of %v from %v wrote %d elements, want %d", sub, srcBox, n, len(want))
		}
		for i := range want {
			if packed[i] != want[i] {
				t.Fatalf("Pack of %v from %v %v to order %v: element %d is %d, want %d",
					sub, srcBox, srcOrder, dstOrder, i, packed[i], want[i])
			}
		}

		dst := make([]int, dstBox.Count())
		if n := Unpack(packed, sub, dst, dstBox, dstOrder); n != len(want) {
			t.Fatalf("Unpack of %v into %v read %d elements, want %d", sub, dstBox, n, len(want))
		}
		for c[2] = dstBox.Lo[2]; c[2] < dstBox.Hi[2]; c[2]++ {
			for c[1] = dstBox.Lo[1]; c[1] < dstBox.Hi[1]; c[1]++ {
				for c[0] = dstBox.Lo[0]; c[0] < dstBox.Hi[0]; c[0]++ {
					w := 0 // untouched outside the sub-box
					if sub.Contains(c[0], c[1], c[2]) {
						w = src[srcOrder.Index(srcBox, c)]
					}
					if got := dst[dstOrder.Index(dstBox, c)]; got != w {
						t.Fatalf("Unpack of %v into %v %v: point %v holds %d, want %d", sub, dstBox, dstOrder, c, got, w)
					}
				}
			}
		}
	})
}
