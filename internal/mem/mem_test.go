package mem

import "testing"

// TestViewRefusesMisalignedMemory: View panics on memory not
// aligned for its result, so a receive buffer that is not element-
// aligned by construction cannot be read through a view by accident.
func TestViewRefusesMisalignedMemory(t *testing.T) {
	b := Bytes(40)
	if got := View[complex128](b[8:40]); len(got) != 2 {
		t.Fatalf("aligned view has %d elements, want 2", len(got))
	}
	for name, bad := range map[string][]byte{"misaligned": b[4:36], "ragged": b[8:36]} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s view of complex128 did not panic", name)
				}
			}()
			View[complex128](bad)
		}()
	}
}
