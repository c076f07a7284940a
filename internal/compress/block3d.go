package compress

import (
	"fmt"
	"math"
)

// Block3D is a fixed-rate, spatially aware coder for 3-D scalar fields,
// modeled on ZFP's design: the field is tiled into 4×4×4 blocks, each
// block is normalized by a shared exponent (block floating point),
// decorrelated by the separable 3-D lifting transform (the 1-D lift of
// Block applied along x, y, and z), and every transform coefficient
// keeps Bits bits in sign-magnitude form.
//
// It exists to evaluate the paper's closing hypothesis — that
// compressors exploiting spatial correlation "could simultaneously give
// us better compression rate or possibly a better accuracy" than
// truncation — on actual smooth fields (see the tests and
// BenchmarkBlock3DVsTruncation). Unlike the Method implementations it
// consumes a field with known dimensions rather than a flat stream.
type Block3D struct {
	// Bits is the per-coefficient budget, 1..30.
	Bits uint
}

const b3Side = 4
const b3N = b3Side * b3Side * b3Side

// BitsPerBlock returns the encoded width of one 4×4×4 block.
func (b Block3D) BitsPerBlock() int { return blockExpBits + b3N*int(b.Bits) }

// Ratio returns the nominal compression ratio.
func (b Block3D) Ratio() float64 {
	return float64(b3N*64) / float64(b.BitsPerBlock())
}

// MaxCompressedLen bounds the compressed size of a field with the given
// dimensions (each rounded up to a multiple of 4).
func (b Block3D) MaxCompressedLen(dims [3]int) int {
	blocks := 1
	for _, d := range dims {
		blocks *= (d + b3Side - 1) / b3Side
	}
	return (blocks*b.BitsPerBlock() + 7) / 8
}

// ErrorBound is the worst-case error relative to the block's largest
// magnitude (empirically validated in the tests; the 3-D lifting has a
// larger inverse gain than the 1-D one).
func (b Block3D) ErrorBound() float64 {
	return 64 * math.Ldexp(1, -int(b.Bits))
}

// Compress encodes the dims[0]×dims[1]×dims[2] field (natural order,
// x fastest) into dst and returns the bytes written.
func (b Block3D) Compress(dst []byte, src []float64, dims [3]int) int {
	if len(src) != dims[0]*dims[1]*dims[2] {
		panic("compress: field size does not match dims")
	}
	w := bitWriter{buf: dst}
	var blk [b3N]float64
	var q [b3N]int64
	forEachBlock(dims, func(bx, by, bz int) {
		gatherBlock(src, dims, bx, by, bz, &blk)
		maxAbs := 0.0
		for _, v := range blk {
			if a := math.Abs(v); a > maxAbs {
				maxAbs = a
			}
		}
		if maxAbs == 0 {
			w.write(blockExpEmpty, blockExpBits)
			for i := range q {
				q[i] = 0
			}
			encodeEmbedded(&w, &q, b3N*int(b.Bits), blockFixBits-1)
			return
		}
		ec := clampExp(ilogb(maxAbs) + 1)
		w.write(uint64(ec), blockExpBits)
		// 4 headroom bits: the 3-D forward transform can grow values by
		// up to 2 per axis pass in the worst case.
		scale := math.Ldexp(1, blockFixBits-4-(ec-blockExpBias))
		for i, v := range blk {
			q[i] = int64(v * scale)
		}
		lift3D(&q, liftForward4)
		// Embedded bit-plane coding spends the fixed budget adaptively:
		// smooth blocks concentrate it on their few large coefficients.
		encodeEmbedded(&w, &q, b3N*int(b.Bits), blockFixBits-1)
	})
	return w.flush()
}

// Decompress decodes a field compressed with the same dims and budget.
func (b Block3D) Decompress(dst []float64, src []byte, dims [3]int) int {
	if len(dst) != dims[0]*dims[1]*dims[2] {
		panic("compress: field size does not match dims")
	}
	r := bitReader{buf: src}
	var blk [b3N]float64
	var q [b3N]int64
	forEachBlock(dims, func(bx, by, bz int) {
		ec := int(r.field(blockExpBits))
		decodeEmbedded(&r, &q, b3N*int(b.Bits), blockFixBits-1)
		if ec == blockExpEmpty {
			for i := range blk {
				blk[i] = 0
			}
		} else {
			lift3D(&q, liftInverse4)
			inv := math.Ldexp(1, -(blockFixBits - 4 - (ec - blockExpBias)))
			for i, cv := range q {
				blk[i] = float64(cv) * inv
			}
		}
		scatterBlock(dst, dims, bx, by, bz, &blk)
	})
	return r.consumed()
}

// forEachBlock visits block origins in deterministic order.
func forEachBlock(dims [3]int, fn func(bx, by, bz int)) {
	for bz := 0; bz < dims[2]; bz += b3Side {
		for by := 0; by < dims[1]; by += b3Side {
			for bx := 0; bx < dims[0]; bx += b3Side {
				fn(bx, by, bz)
			}
		}
	}
}

// gatherBlock copies (with edge clamping by zero padding) a 4×4×4 block.
func gatherBlock(src []float64, dims [3]int, bx, by, bz int, blk *[b3N]float64) {
	i := 0
	for z := 0; z < b3Side; z++ {
		for y := 0; y < b3Side; y++ {
			for x := 0; x < b3Side; x++ {
				gx, gy, gz := bx+x, by+y, bz+z
				if gx < dims[0] && gy < dims[1] && gz < dims[2] {
					blk[i] = src[gx+dims[0]*(gy+dims[1]*gz)]
				} else {
					blk[i] = 0
				}
				i++
			}
		}
	}
}

func scatterBlock(dst []float64, dims [3]int, bx, by, bz int, blk *[b3N]float64) {
	i := 0
	for z := 0; z < b3Side; z++ {
		for y := 0; y < b3Side; y++ {
			for x := 0; x < b3Side; x++ {
				gx, gy, gz := bx+x, by+y, bz+z
				if gx < dims[0] && gy < dims[1] && gz < dims[2] {
					dst[gx+dims[0]*(gy+dims[1]*gz)] = blk[i]
				}
				i++
			}
		}
	}
}

// lift3D applies a 4-point lifting step along each axis of the 4×4×4
// block (the separable transform ZFP uses).
func lift3D(q *[b3N]int64, lift func(*[4]int64)) {
	var v [4]int64
	// x lines
	for z := 0; z < b3Side; z++ {
		for y := 0; y < b3Side; y++ {
			base := b3Side * (y + b3Side*z)
			for i := 0; i < 4; i++ {
				v[i] = q[base+i]
			}
			lift(&v)
			for i := 0; i < 4; i++ {
				q[base+i] = v[i]
			}
		}
	}
	// y lines
	for z := 0; z < b3Side; z++ {
		for x := 0; x < b3Side; x++ {
			for i := 0; i < 4; i++ {
				v[i] = q[x+b3Side*(i+b3Side*z)]
			}
			lift(&v)
			for i := 0; i < 4; i++ {
				q[x+b3Side*(i+b3Side*z)] = v[i]
			}
		}
	}
	// z lines
	for y := 0; y < b3Side; y++ {
		for x := 0; x < b3Side; x++ {
			for i := 0; i < 4; i++ {
				v[i] = q[x+b3Side*(y+b3Side*i)]
			}
			lift(&v)
			for i := 0; i < 4; i++ {
				q[x+b3Side*(y+b3Side*i)] = v[i]
			}
		}
	}
}

// liftForward4 / liftInverse4 adapt the package's 4-point lifting pair
// to array form.
func liftForward4(p *[4]int64) {
	var t [blockN]int64
	copy(t[:], p[:])
	liftForward(&t)
	copy(p[:], t[:])
}

func liftInverse4(p *[4]int64) {
	var t [blockN]int64
	copy(t[:], p[:])
	liftInverse(&t)
	copy(p[:], t[:])
}

// FieldRMS returns the root-mean-square pointwise error between two
// fields (a study helper for the rate/accuracy comparisons).
func FieldRMS(a, b []float64) float64 {
	if len(a) != len(b) {
		panic("compress: field length mismatch")
	}
	var s float64
	for i := range a {
		d := a[i] - b[i]
		s += d * d
	}
	return math.Sqrt(s / float64(len(a)))
}

// String implements fmt.Stringer.
func (b Block3D) String() string { return fmt.Sprintf("Block3D(%d)", b.Bits) }
