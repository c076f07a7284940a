package grid

// Order is an axis permutation describing a local memory layout:
// Order[0] is the fastest-varying (stride-1) axis, Order[2] the slowest.
// The distributed FFT keeps each stage's transform axis first so 1-D
// FFTs run on contiguous vectors.
type Order [3]int

// Natural is the row-major layout with axis 0 (x) fastest.
var Natural = Order{0, 1, 2}

// ForAxis returns the layout that makes the given axis stride-1,
// keeping the remaining axes in increasing order.
func ForAxis(axis int) Order {
	o := otherAxes(axis)
	return Order{axis, o[0], o[1]}
}

// Index returns the offset of global coordinate c within box b laid out
// with order o.
func (o Order) Index(b Box, c [3]int) int {
	i0 := c[o[0]] - b.Lo[o[0]]
	i1 := c[o[1]] - b.Lo[o[1]]
	i2 := c[o[2]] - b.Lo[o[2]]
	return i0 + b.Size(o[0])*(i1+b.Size(o[1])*i2)
}

// Pack copies the elements of sub out of src (the data of srcBox laid
// out with srcOrder) into dst, contiguously, ordered by dstOrder (the
// receiver's layout). It returns the number of elements written.
func Pack[T any](src []T, srcBox Box, srcOrder Order, sub Box, dstOrder Order, dst []T) int {
	n := 0
	a0, a1, a2 := dstOrder[0], dstOrder[1], dstOrder[2]
	var c [3]int
	for i2 := sub.Lo[a2]; i2 < sub.Hi[a2]; i2++ {
		c[a2] = i2
		for i1 := sub.Lo[a1]; i1 < sub.Hi[a1]; i1++ {
			c[a1] = i1
			c[a0] = sub.Lo[a0]
			base := srcOrder.Index(srcBox, c)
			stride := strideOf(srcBox, srcOrder, a0)
			for i0 := 0; i0 < sub.Size(a0); i0++ {
				dst[n] = src[base+i0*stride]
				n++
			}
		}
	}
	return n
}

// Unpack scatters contiguous data (ordered by dstOrder, as produced by
// Pack with the same dstOrder) into dst, the storage of dstBox laid out
// with dstOrder. It returns the number of elements read.
func Unpack[T any](src []T, sub Box, dst []T, dstBox Box, dstOrder Order) int {
	n := 0
	a0, a1, a2 := dstOrder[0], dstOrder[1], dstOrder[2]
	var c [3]int
	for i2 := sub.Lo[a2]; i2 < sub.Hi[a2]; i2++ {
		c[a2] = i2
		for i1 := sub.Lo[a1]; i1 < sub.Hi[a1]; i1++ {
			c[a1] = i1
			c[a0] = sub.Lo[a0]
			base := dstOrder.Index(dstBox, c)
			// dstOrder[0] is stride-1 in dst by construction.
			copyN := sub.Size(a0)
			copy(dst[base:base+copyN], src[n:n+copyN])
			n += copyN
		}
	}
	return n
}

// strideOf returns the stride of axis within the layout (box, order).
func strideOf(b Box, o Order, axis int) int {
	stride := 1
	for i := 0; i < 3; i++ {
		if o[i] == axis {
			return stride
		}
		stride *= b.Size(o[i])
	}
	panic("grid: axis not in order")
}

// Transfer describes one peer's share of a reshape.
type Transfer struct {
	Rank   int // peer rank
	Sub    Box // the overlap region exchanged
	Offset int // element offset into the staging buffer
	Count  int // elements
}

// Plan holds the send and receive schedules of one reshape (from the
// inBoxes decomposition to the outBoxes decomposition) for rank me.
// Empty overlaps are omitted.
type Plan struct {
	Send []Transfer
	Recv []Transfer
	// SendTotal and RecvTotal are the staging buffer sizes in elements.
	SendTotal, RecvTotal int
}

// NewPlan computes the reshape plan for rank me between two
// decompositions of the same global grid, given as per-rank box tables.
func NewPlan(me int, inBoxes, outBoxes []Box) Plan {
	return newPlan(inBoxes[me], outBoxes[me], table(outBoxes), table(inBoxes))
}

// PlanFor returns what NewPlan returns on the tables of from and to
// (which decompose the same grid), visiting only candidate partners:
// O(partners) per rank instead of O(P).
func PlanFor(me int, from, to Decomp) Plan {
	in, out := from.Box(me), to.Box(me)
	return newPlan(in, out, to.meeting(in), from.meeting(out))
}

// table visits every box of a per-rank table in rank order.
func table(boxes []Box) func(visit func(r int, box Box)) {
	return func(visit func(int, Box)) {
		for r, b := range boxes {
			visit(r, b)
		}
	}
}

// newPlan is the body NewPlan and PlanFor share: sendTo and recvFrom
// visit, in rank order, the candidate peers of boxes in and out.
func newPlan(in, out Box, sendTo, recvFrom func(func(int, Box))) Plan {
	var pl Plan
	pl.Send, pl.SendTotal = transfers(in, sendTo)
	pl.Recv, pl.RecvTotal = transfers(out, recvFrom)
	return pl
}

// transfers lays out mine's non-empty overlaps with the peers' boxes.
func transfers(mine Box, peers func(func(int, Box))) (ts []Transfer, total int) {
	peers(func(r int, b Box) {
		if ov := Intersect(mine, b); !ov.Empty() {
			ts = append(ts, Transfer{Rank: r, Sub: ov, Offset: total, Count: ov.Count()})
			total += ov.Count()
		}
	})
	return ts, total
}
