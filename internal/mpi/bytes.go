package mpi

import (
	"encoding/binary"
	"math"
)

// Float64sToBytes encodes a float64 slice little-endian.
func Float64sToBytes(src []float64) []byte {
	out := make([]byte, 8*len(src))
	for i, v := range src {
		binary.LittleEndian.PutUint64(out[8*i:], math.Float64bits(v))
	}
	return out
}

// BytesToFloat64s decodes a little-endian float64 slice.
func BytesToFloat64s(b []byte) []float64 {
	out := make([]float64, len(b)/8)
	for i := range out {
		out[i] = math.Float64frombits(binary.LittleEndian.Uint64(b[8*i:]))
	}
	return out
}
