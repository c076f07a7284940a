package compress

import (
	"fmt"
	"math"
)

// Block is a fixed-rate ZFP-style block transform coder. Values are
// grouped in 1-D blocks of 4; each block stores a shared exponent
// (block floating point), applies ZFP's reversible decorrelating lifting
// transform to 30-bit fixed-point integers, and keeps the top Bits bits
// of each transform coefficient in sign-magnitude form.
//
// On spatially correlated data the lifting transform concentrates energy
// in the low coefficients so a given bit budget yields lower error than
// plain truncation; on random data it behaves like truncation, exactly as
// §IV-A of the paper observes. Fixed rate: 8 + 4·Bits bits per 4 values.
type Block struct {
	// Bits is the per-coefficient budget, 1..30.
	Bits uint
}

const (
	blockN        = 4
	blockFixBits  = 30 // fixed-point precision inside a block
	blockExpBits  = 8  // biased shared exponent (clamped)
	blockExpBias  = 127
	blockExpEmpty = 0 // exponent code for an all-zero block
)

// Name implements Method.
func (b Block) Name() string { return fmt.Sprintf("Block(%d)", b.Bits) }

// BitsPerBlock returns the encoded width of one 4-value block.
func (b Block) BitsPerBlock() int { return blockExpBits + blockN*int(b.Bits) }

// Ratio implements Method.
func (b Block) Ratio() float64 {
	return float64(blockN*64) / float64(b.BitsPerBlock())
}

// MaxCompressedLen implements Method.
func (b Block) MaxCompressedLen(n int) int {
	blocks := (n + blockN - 1) / blockN
	return (blocks*b.BitsPerBlock() + 7) / 8
}

// ErrorBound implements Method. Coefficient truncation at 2^-Bits is
// amplified by the inverse lifting gain and the 2-bit headroom shift;
// the worst case observed across wide-dynamic-range random blocks is
// ≈28.5·2^-Bits relative to the block's largest magnitude (the
// property suite sweeps this), so the advertised envelope is the next
// power of two, 32·2^-Bits.
func (b Block) ErrorBound() float64 {
	return 32 * math.Ldexp(1, -int(b.Bits))
}

// MinNormal implements Method. The shared exponent clamps to an
// FP32-like biased range; note the bound above is relative to the
// block's largest magnitude, so per-value relative error on mixed-scale
// blocks can exceed it even above this threshold.
func (b Block) MinNormal() float64 { return 0x1p-126 }

// Compress implements Method.
func (b Block) Compress(dst []byte, src []float64) int {
	w := bitWriter{buf: dst}
	var blk [blockN]float64
	var q [blockN]int64
	for off := 0; off < len(src); off += blockN {
		for i := 0; i < blockN; i++ {
			if off+i < len(src) {
				blk[i] = src[off+i]
			} else {
				blk[i] = 0 // zero padding for the tail block
			}
		}
		maxAbs := 0.0
		for _, v := range blk {
			if a := math.Abs(v); a > maxAbs {
				maxAbs = a
			}
		}
		if maxAbs == 0 {
			w.write(blockExpEmpty, blockExpBits)
			for i := 0; i < blockN; i++ {
				w.write(0, b.Bits)
			}
			continue
		}
		e := ilogb(maxAbs) + 1 // values are < 2^e
		ec := clampExp(e)
		w.write(uint64(ec), blockExpBits)
		scale := math.Ldexp(1, blockFixBits-2-(ec-blockExpBias)) // headroom of 2 bits for the transform
		for i, v := range blk {
			q[i] = int64(v * scale)
		}
		liftForward(&q)
		shift := uint(blockFixBits) - b.Bits
		for _, c := range q {
			w.write(signMag(c>>shift, b.Bits), b.Bits)
		}
	}
	return w.flush()
}

// Decompress implements Method.
func (b Block) Decompress(dst []float64, src []byte) int {
	r := bitReader{buf: src}
	var q [blockN]int64
	shift := uint(blockFixBits) - b.Bits
	for off := 0; off < len(dst); off += blockN {
		ec := int(r.field(blockExpBits))
		for i := 0; i < blockN; i++ {
			q[i] = unSignMag(r.field(b.Bits), b.Bits) << shift
		}
		if ec == blockExpEmpty {
			for i := 0; i < blockN && off+i < len(dst); i++ {
				dst[off+i] = 0
			}
			continue
		}
		liftInverse(&q)
		inv := math.Ldexp(1, -(blockFixBits - 2 - (ec - blockExpBias)))
		for i := 0; i < blockN && off+i < len(dst); i++ {
			dst[off+i] = float64(q[i]) * inv
		}
	}
	return r.consumed()
}

func clampExp(e int) int {
	ec := e + blockExpBias
	if ec <= blockExpEmpty {
		ec = blockExpEmpty + 1
	}
	if ec > 255 {
		ec = 255
	}
	return ec
}

// liftForward is ZFP's 1-D forward decorrelating transform on a block of
// four fixed-point values (an approximate orthogonal basis close to a
// DCT, built from shifts and adds so it is cheap and reversible-ish).
func liftForward(p *[blockN]int64) {
	x, y, z, w := p[0], p[1], p[2], p[3]
	x += w
	x >>= 1
	w -= x
	z += y
	z >>= 1
	y -= z
	x += z
	x >>= 1
	z -= x
	w += y
	w >>= 1
	y -= w
	w += y >> 1
	y -= w >> 1
	p[0], p[1], p[2], p[3] = x, y, z, w
}

// liftInverse undoes liftForward (up to the precision lost in shifts).
func liftInverse(p *[blockN]int64) {
	x, y, z, w := p[0], p[1], p[2], p[3]
	y += w >> 1
	w -= y >> 1
	y += w
	w <<= 1
	w -= y
	z += x
	x <<= 1
	x -= z
	y += z
	z <<= 1
	z -= y
	w += x
	x <<= 1
	x -= w
	p[0], p[1], p[2], p[3] = x, y, z, w
}

// signMag maps a signed value to sign-magnitude with the sign in the top
// bit of the width-bit field, saturating the magnitude.
func signMag(v int64, width uint) uint64 {
	neg := v < 0
	if neg {
		v = -v
	}
	maxMag := int64(1)<<(width-1) - 1
	if v > maxMag {
		v = maxMag
	}
	u := uint64(v)
	if neg {
		u |= 1 << (width - 1)
	}
	return u
}

func unSignMag(u uint64, width uint) int64 {
	mag := int64(u & (1<<(width-1) - 1))
	if u>>(width-1)&1 == 1 {
		return -mag
	}
	return mag
}
