//go:build 386 || amd64 || arm || arm64 || loong64 || mips64le || mipsle || ppc64le || riscv64 || wasm

// Package mem views a buffer's memory as another element type without
// copying it. A reshape packs its elements straight into the block its
// transport sends as bytes (or as float64 values), and unpacks straight
// out of the bytes it received, with no conversion pass between. This is
// the module's only use of unsafe, and it holds to this contract:
//
//   - Alignment. Every buffer a receiver views is element-aligned by
//     construction, never by allocator luck: it is allocated as a word
//     type (a typed slice, or Bytes) and every offset into it is a whole
//     number of elements. View panics on memory that is not aligned for
//     its result, so a buffer that breaks the rule fails loudly on every
//     platform instead of loading misaligned words where that is legal.
//   - Byte order. This file builds only for the little-endian targets
//     named in its build constraint, and the package has no other file:
//     a big-endian build fails to compile here. On every target the
//     module builds for, the bytes of a float32, float64, complex64 or
//     complex128 in memory are therefore exactly the little-endian
//     encoding the wire and the checkpoints have always carried.
//   - Pointer-free elements. Word admits only pointer-free numeric
//     types, so a view never hides a pointer from the garbage collector.
package mem

import "unsafe"

// Word is an element type whose memory may be viewed as another's.
type Word interface {
	~byte | ~float32 | ~float64 | ~complex64 | ~complex128
}

// View returns the memory of s as a []To of the same byte length, with
// no copy: writes through either slice show in the other. The length
// must be a whole number of To values and, unless it is empty, the
// memory aligned for To.
func View[To, From Word](s []From) []To {
	var to To
	n := uintptr(len(s)) * unsafe.Sizeof(s[0])
	p := unsafe.Pointer(unsafe.SliceData(s))
	if n%unsafe.Sizeof(to) != 0 || n > 0 && uintptr(p)%unsafe.Alignof(to) != 0 {
		panic("mem: view of ragged or misaligned memory")
	}
	return unsafe.Slice((*To)(p), n/unsafe.Sizeof(to))
}

// Bytes allocates n zeroed bytes aligned for every Word: the memory is
// allocated as float64 words, so any offset into it that is a multiple
// of an element's size may be viewed as that element type.
func Bytes(n int) []byte {
	return View[byte](make([]float64, (n+7)/8))[:n:n]
}
