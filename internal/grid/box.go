// Package grid implements the domain-decomposition machinery of the
// distributed 3-D FFT: half-open index boxes, brick and pencil
// decompositions over process grids, the overlap computation that turns
// a pair of decompositions into an all-to-all-v plan (the reshape of
// Fig. 1), and packing/unpacking kernels that reorder axes so each 1-D
// FFT stage sees stride-1 data.
package grid

import "fmt"

// Box is a half-open 3-D index region: it contains (i,j,k) with
// Lo[d] ≤ coord[d] < Hi[d] for every axis d.
type Box struct {
	Lo, Hi [3]int
}

// Size returns the extent of the box along axis d.
func (b Box) Size(d int) int {
	s := b.Hi[d] - b.Lo[d]
	if s < 0 {
		return 0
	}
	return s
}

// Count returns the number of grid points in the box.
func (b Box) Count() int {
	return b.Size(0) * b.Size(1) * b.Size(2)
}

// Empty reports whether the box contains no points.
func (b Box) Empty() bool { return b.Count() == 0 }

// Contains reports whether (i,j,k) lies inside the box.
func (b Box) Contains(i, j, k int) bool {
	return i >= b.Lo[0] && i < b.Hi[0] &&
		j >= b.Lo[1] && j < b.Hi[1] &&
		k >= b.Lo[2] && k < b.Hi[2]
}

// Intersect returns the overlap of two boxes (possibly empty).
func Intersect(a, b Box) Box {
	var r Box
	for d := 0; d < 3; d++ {
		r.Lo[d] = max(a.Lo[d], b.Lo[d])
		r.Hi[d] = min(a.Hi[d], b.Hi[d])
		if r.Hi[d] < r.Lo[d] {
			r.Hi[d] = r.Lo[d]
		}
	}
	return r
}

func (b Box) String() string {
	return fmt.Sprintf("[%d:%d,%d:%d,%d:%d]", b.Lo[0], b.Hi[0], b.Lo[1], b.Hi[1], b.Lo[2], b.Hi[2])
}

// Factor2 factors p into two factors as close to √p as possible,
// returned in nondecreasing order.
func Factor2(p int) [2]int {
	if p <= 0 {
		panic("grid: non-positive process count")
	}
	best := [2]int{1, p}
	for a := 1; a*a <= p; a++ {
		if p%a == 0 {
			best = [2]int{a, p / a}
		}
	}
	return best
}

// Factor3 factors p into three factors minimizing the maximum factor
// (the heFFTe proc_setup heuristic: near-cubic process grids minimize
// reshape surface). Returned in nondecreasing order.
func Factor3(p int) [3]int {
	if p <= 0 {
		panic("grid: non-positive process count")
	}
	best := [3]int{1, 1, p}
	bestSurf := surface(best)
	for a := 1; a*a*a <= p; a++ {
		if p%a != 0 {
			continue
		}
		q := p / a
		for b := a; b*b <= q; b++ {
			if q%b != 0 {
				continue
			}
			c := q / b
			cand := [3]int{a, b, c}
			if s := surface(cand); s < bestSurf {
				best, bestSurf = cand, s
			}
		}
	}
	return best
}

func surface(f [3]int) int {
	return f[0]*f[1] + f[1]*f[2] + f[0]*f[2]
}

// split1 returns the [lo,hi) range of part i of n split into g parts as
// evenly as possible.
func split1(n, g, i int) (lo, hi int) {
	return n * i / g, n * (i + 1) / g
}

// span returns, in closed form, the parts [lo,hi) of n split into g
// whose split1 range meets [a,b); an empty [a,b) meets none.
func span(n, g, a, b int) (lo, hi int) {
	if a >= b {
		return 0, 0
	}
	return (g*(a+1)+n-1)/n - 1, (g*b + n - 1) / n
}

// Decomp is a decomposition of an N[0]×N[1]×N[2] grid over a
// G[0]×G[1]×G[2] process grid, held as arithmetic instead of a box per
// rank. Rank r owns coordinate (r mod G0, (r/G0) mod G1, r/(G0·G1)).
type Decomp struct {
	N, G [3]int
}

// BrickDecomp decomposes the grid over p ranks into near-cubic bricks
// on the Factor3(p) process grid.
func BrickDecomp(n [3]int, p int) Decomp {
	return Decomp{n, Factor3(p)}
}

// PencilDecomp decomposes the grid into p pencils spanning the full
// extent of the given axis, with the two remaining axes split over
// Factor2(p) (lower factor on the lower remaining axis).
func PencilDecomp(n [3]int, axis, p int) Decomp {
	f := Factor2(p)
	var g [3]int
	g[axis] = 1
	others := otherAxes(axis)
	g[others[0]], g[others[1]] = f[0], f[1]
	return Decomp{n, g}
}

// Box returns rank r's share of the grid.
func (d Decomp) Box(r int) Box {
	c := [3]int{r % d.G[0], (r / d.G[0]) % d.G[1], r / (d.G[0] * d.G[1])}
	var b Box
	for a := 0; a < 3; a++ {
		b.Lo[a], b.Hi[a] = split1(d.N[a], d.G[a], c[a])
	}
	return b
}

// meeting visits in rank order the ranks whose parts meet b's range on
// every axis: a superset of the ranks whose boxes overlap b.
func (d Decomp) meeting(b Box) func(visit func(r int, box Box)) {
	var lo, hi [3]int
	for a := 0; a < 3; a++ {
		lo[a], hi[a] = span(d.N[a], d.G[a], b.Lo[a], b.Hi[a])
	}
	return func(visit func(int, Box)) {
		for z := lo[2]; z < hi[2]; z++ {
			for y := lo[1]; y < hi[1]; y++ {
				for x := lo[0]; x < hi[0]; x++ {
					r := x + d.G[0]*(y+d.G[1]*z)
					visit(r, d.Box(r))
				}
			}
		}
	}
}

// Bricks returns the per-rank box table of Decomp{n, g}.
func Bricks(n [3]int, g [3]int) []Box {
	boxes := make([]Box, g[0]*g[1]*g[2])
	for r := range boxes {
		boxes[r] = Decomp{n, g}.Box(r)
	}
	return boxes
}

// Pencils returns the per-rank box table of PencilDecomp(n, axis, p).
func Pencils(n [3]int, axis, p int) []Box {
	return Bricks(n, PencilDecomp(n, axis, p).G)
}

func otherAxes(axis int) [2]int {
	switch axis {
	case 0:
		return [2]int{1, 2}
	case 1:
		return [2]int{0, 2}
	case 2:
		return [2]int{0, 1}
	}
	panic("grid: invalid axis")
}
