package apps

import (
	"fmt"
	"math"
	"testing"
)

// TestLabelHelpersMatchSprintf pins call and index to the fmt.Sprintf forms
// they replace, byte for byte, across empty and long names, zero, negative
// and extreme values, and every argument count the builders use.
func TestLabelHelpersMatchSprintf(t *testing.T) {
	vals := []int{0, 1, 9, 10, 99, 100, 12345, -1, -10, math.MaxInt64, math.MinInt64}
	names := []string{"", "A", "init_x", "a_rather_long_kernel_name_past_the_stack_buffer"}
	for _, name := range names {
		for _, a := range vals {
			if got, want := call(name, a), fmt.Sprintf("%s(%d)", name, a); got != want {
				t.Errorf("call(%q, %d) = %q, want %q", name, a, got, want)
			}
			if got, want := index(name, a), fmt.Sprintf("%s[%d]", name, a); got != want {
				t.Errorf("index(%q, %d) = %q, want %q", name, a, got, want)
			}
			for _, b := range vals {
				if got, want := call(name, a, b), fmt.Sprintf("%s(%d,%d)", name, a, b); got != want {
					t.Errorf("call(%q, %d, %d) = %q, want %q", name, a, b, got, want)
				}
				if got, want := index(name, a, b), fmt.Sprintf("%s[%d][%d]", name, a, b); got != want {
					t.Errorf("index(%q, %d, %d) = %q, want %q", name, a, b, got, want)
				}
				for _, c := range vals[:4] {
					if got, want := call(name, a, b, c), fmt.Sprintf("%s(%d,%d,%d)", name, a, b, c); got != want {
						t.Errorf("call(%q, %d, %d, %d) = %q, want %q", name, a, b, c, got, want)
					}
					if got, want := call(name, a, b, c, a), fmt.Sprintf("%s(%d,%d,%d,%d)", name, a, b, c, a); got != want {
						t.Errorf("call(%q, %d, %d, %d, %d) = %q, want %q", name, a, b, c, a, got, want)
					}
				}
			}
		}
	}
}
