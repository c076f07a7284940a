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
	return move(dst, walk(sub, dstOrder, sub, dstOrder), src, walk(srcBox, srcOrder, sub, dstOrder))
}

// Unpack scatters contiguous data (ordered by dstOrder, as produced by
// Pack with the same dstOrder) into dst, the storage of dstBox laid out
// with dstOrder. It returns the number of elements read.
func Unpack[T any](src []T, sub Box, dst []T, dstBox Box, dstOrder Order) int {
	return move(dst, walk(dstBox, dstOrder, sub, dstOrder), src, walk(sub, dstOrder, sub, dstOrder))
}

// rows locates a sub-box's elements in some storage: element (i0, i1,
// i2) of the visit sits at base + i0·stride[0] + i1·stride[1] +
// i2·stride[2], for i < n.
type rows struct {
	base      int
	stride, n [3]int
}

// walk computes once per sub-box what a per-row Index would recompute:
// where sub starts in the storage of box laid out with lay, and the
// strides of the axes that ord visits sub in. walk(sub, ord, sub, ord)
// is sub packed contiguously in order ord.
func walk(box Box, lay Order, sub Box, ord Order) rows {
	w := rows{base: lay.Index(box, sub.Lo)}
	for k, a := range ord {
		w.stride[k], w.n[k] = strideOf(box, lay, a), sub.Size(a)
	}
	return w
}

// move copies the elements that from locates in src to where to locates
// them in dst (the same visit), row by row; a row that is stride-1 on
// both sides moves as one copy. It returns the number of elements.
func move[T any](dst []T, to rows, src []T, from rows) int {
	n := to.n
	for i2 := 0; i2 < n[2]; i2++ {
		for i1 := 0; i1 < n[1]; i1++ {
			d := to.base + i1*to.stride[1] + i2*to.stride[2]
			s := from.base + i1*from.stride[1] + i2*from.stride[2]
			if to.stride[0] == 1 && from.stride[0] == 1 {
				copy(dst[d:d+n[0]], src[s:s+n[0]])
				continue
			}
			for range n[0] {
				dst[d] = src[s]
				d += to.stride[0]
				s += from.stride[0]
			}
		}
	}
	return n[0] * n[1] * n[2]
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
