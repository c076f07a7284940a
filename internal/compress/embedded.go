package compress

// Embedded bit-plane coding with significance group testing — the coding
// engine that gives ZFP-class coders their energy-adaptive behaviour
// within a fixed bit budget. Coefficients are visited in total-degree
// order (low frequencies first); planes are emitted from the most
// significant bit down; within each plane a single "tail" test bit
// cheaply skips the (typically many) still-insignificant high-frequency
// coefficients of smooth blocks, so the budget concentrates on the large
// coefficients. Encoding stops exactly at the budget; the decoder runs
// the mirrored state machine.

// degreeOrder3D returns the visiting order of a 4×4×4 block's
// coefficients sorted by total degree i+j+k (stable in index order).
func degreeOrder3D() [b3N]int {
	var order [b3N]int
	pos := 0
	for deg := 0; deg <= 9; deg++ {
		for z := 0; z < b3Side; z++ {
			for y := 0; y < b3Side; y++ {
				for x := 0; x < b3Side; x++ {
					if x+y+z == deg {
						order[pos] = x + b3Side*(y+b3Side*z)
						pos++
					}
				}
			}
		}
	}
	return order
}

var b3Order = degreeOrder3D()

// budgetWriter wraps bitWriter with a hard bit budget.
type budgetWriter struct {
	w    *bitWriter
	left int
}

func (b *budgetWriter) put(bit uint64) bool {
	if b.left <= 0 {
		return false
	}
	b.w.write(bit&1, 1)
	b.left--
	return true
}

// pad flushes zero bits until the budget is consumed (fixed-rate framing).
func (b *budgetWriter) pad() {
	for b.left > 0 {
		b.w.write(0, 1)
		b.left--
	}
}

type budgetReader struct {
	r    *bitReader
	left int
}

func (b *budgetReader) get() (uint64, bool) {
	if b.left <= 0 {
		return 0, false
	}
	b.left--
	return b.r.field(1), true
}

func (b *budgetReader) drain() {
	for b.left > 0 {
		b.r.field(1)
		b.left--
	}
}

// encodeEmbedded writes exactly budget bits encoding the magnitudes and
// signs of q (values in two's complement; |q| < 2^topPlane+1).
func encodeEmbedded(w *bitWriter, q *[b3N]int64, budget, topPlane int) {
	bw := budgetWriter{w: w, left: budget}
	var mag [b3N]uint64
	var neg [b3N]bool
	for i, v := range q {
		if v < 0 {
			neg[i] = true
			mag[i] = uint64(-v)
		} else {
			mag[i] = uint64(v)
		}
	}
	var sig [b3N]bool
	nsig := 0
planes:
	for p := topPlane; p >= 0; p-- {
		// Refinement pass: one bit per already-significant coefficient.
		for pos := 0; pos < b3N; pos++ {
			idx := b3Order[pos]
			if sig[idx] {
				if !bw.put(mag[idx] >> uint(p)) {
					break planes
				}
			}
		}
		// Significance pass with tail group testing.
		pos := 0
		for nsig < b3N {
			// Skip already-significant prefix positions.
			for pos < b3N && sig[b3Order[pos]] {
				pos++
			}
			if pos >= b3N {
				break
			}
			tailAny := uint64(0)
			for t := pos; t < b3N; t++ {
				idx := b3Order[t]
				if !sig[idx] && mag[idx]>>uint(p)&1 == 1 {
					tailAny = 1
					break
				}
			}
			if !bw.put(tailAny) {
				break planes
			}
			if tailAny == 0 {
				break // rest of this plane is zero
			}
			// Emit per-coefficient bits until the set one is found.
			for pos < b3N {
				idx := b3Order[pos]
				if sig[idx] {
					pos++
					continue
				}
				bit := mag[idx] >> uint(p) & 1
				if !bw.put(bit) {
					break planes
				}
				pos++
				if bit == 1 {
					sign := uint64(0)
					if neg[idx] {
						sign = 1
					}
					if !bw.put(sign) {
						break planes
					}
					sig[idx] = true
					nsig++
					break
				}
			}
		}
	}
	bw.pad()
}

// decodeEmbedded mirrors encodeEmbedded, reconstructing truncated
// magnitudes (with a half-step rounding bias on the lowest decoded
// plane of each significant coefficient).
func decodeEmbedded(r *bitReader, q *[b3N]int64, budget, topPlane int) {
	br := budgetReader{r: r, left: budget}
	var mag [b3N]uint64
	var neg [b3N]bool
	var sig [b3N]bool
	var lowPlane [b3N]int
	nsig := 0
planes:
	for p := topPlane; p >= 0; p-- {
		for pos := 0; pos < b3N; pos++ {
			idx := b3Order[pos]
			if sig[idx] {
				bit, ok := br.get()
				if !ok {
					break planes
				}
				mag[idx] |= bit << uint(p)
				lowPlane[idx] = p
			}
		}
		pos := 0
		for nsig < b3N {
			for pos < b3N && sig[b3Order[pos]] {
				pos++
			}
			if pos >= b3N {
				break
			}
			tailAny, ok := br.get()
			if !ok {
				break planes
			}
			if tailAny == 0 {
				break
			}
			for pos < b3N {
				idx := b3Order[pos]
				if sig[idx] {
					pos++
					continue
				}
				bit, ok := br.get()
				if !ok {
					break planes
				}
				pos++
				if bit == 1 {
					sign, ok := br.get()
					if !ok {
						break planes
					}
					mag[idx] |= 1 << uint(p)
					lowPlane[idx] = p
					neg[idx] = sign == 1
					sig[idx] = true
					nsig++
					break
				}
			}
		}
	}
	br.drain()
	for i := range q {
		m := mag[i]
		if m != 0 && lowPlane[i] > 0 {
			// Round to the middle of the truncated interval.
			m |= 1 << uint(lowPlane[i]-1)
		}
		v := int64(m)
		if neg[i] {
			v = -v
		}
		q[i] = v
	}
}
