package grid

import (
	"reflect"
	"testing"
)

// stage returns pipeline stage s's decomposition (0: bricks, 1..3: the
// x, y and z pencils) and the per-rank table the same stage had before
// decompositions were arithmetic.
func stage(n [3]int, s, p int) (Decomp, []Box) {
	if s == 0 {
		return BrickDecomp(n, p), Bricks(n, Factor3(p))
	}
	return PencilDecomp(n, s-1, p), Pencils(n, s-1, p)
}

// checkPlanFor fails t unless from and to agree with their tables at
// rank me: the same box on both sides, and the same plan from PlanFor
// as from NewPlan over the tables — transfer order, subs, offsets,
// counts and totals.
func checkPlanFor(t *testing.T, me int, from, to Decomp, fromT, toT []Box) {
	t.Helper()
	if got := from.Box(me); got != fromT[me] {
		t.Fatalf("%+v rank %d: Box = %v, table has %v", from, me, got, fromT[me])
	}
	if got := to.Box(me); got != toT[me] {
		t.Fatalf("%+v rank %d: Box = %v, table has %v", to, me, got, toT[me])
	}
	got, want := PlanFor(me, from, to), NewPlan(me, fromT, toT)
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("rank %d, %+v → %+v:\nPlanFor %+v\nNewPlan %+v", me, from, to, got, want)
	}
}

// TestPlanForMatchesNewPlan: on every rank and every ordered pair of
// the four stages, the arithmetic decompositions reproduce the box
// tables and PlanFor reproduces NewPlan, on grids that split unevenly
// and that are smaller than the process grid on some axis (ranks with
// empty boxes).
func TestPlanForMatchesNewPlan(t *testing.T) {
	grids := [][3]int{{8, 8, 8}, {9, 7, 5}, {2, 13, 6}}
	for _, p := range []int{1, 2, 3, 5, 6, 7, 12, 24, 96, 384} {
		for _, n := range grids {
			var ds [4]Decomp
			var ts [4][]Box
			for s := range ds {
				ds[s], ts[s] = stage(n, s, p)
			}
			for from := range ds {
				for to := range ds {
					for me := 0; me < p; me++ {
						checkPlanFor(t, me, ds[from], ds[to], ts[from], ts[to])
					}
				}
			}
		}
	}
}

// TestSpanIsExact: span returns exactly the parts whose range meets
// [a,b) — none when [a,b) is empty — checked against a scan of every
// part.
func TestSpanIsExact(t *testing.T) {
	for n := 0; n <= 12; n++ {
		for g := 1; g <= 14; g++ {
			for a := 0; a <= n; a++ {
				for b := a; b <= n; b++ {
					lo, hi := span(n, g, a, b)
					for i := 0; i < g; i++ {
						plo, phi := split1(n, g, i)
						meets := a < b && plo < b && phi > a
						if in := i >= lo && i < hi; in != meets {
							t.Fatalf("span(%d, %d, %d, %d) = [%d,%d): part %d [%d,%d) in=%v, meets=%v",
								n, g, a, b, lo, hi, i, plo, phi, in, meets)
						}
					}
				}
			}
		}
	}
}

// FuzzPlanFor: for any grid, rank count, pair of stages and rank,
// PlanFor and Box agree with NewPlan over the box tables.
func FuzzPlanFor(f *testing.F) {
	f.Add(uint8(8), uint8(8), uint8(8), uint16(12), uint8(0), uint8(1), uint16(5))
	f.Add(uint8(2), uint8(13), uint8(6), uint16(384), uint8(1), uint8(2), uint16(383))
	f.Add(uint8(0), uint8(3), uint8(1), uint16(7), uint8(3), uint8(0), uint16(0))
	f.Fuzz(func(t *testing.T, n0, n1, n2 uint8, p16 uint16, from, to uint8, me16 uint16) {
		n := [3]int{int(n0 % 40), int(n1 % 40), int(n2 % 40)}
		p := 1 + int(p16%1536)
		me := int(me16) % p
		fd, ft := stage(n, int(from%4), p)
		td, tt := stage(n, int(to%4), p)
		checkPlanFor(t, me, fd, td, ft, tt)
	})
}
