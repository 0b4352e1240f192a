package slab

import (
	"slices"
	"testing"
)

// TestAppendListsAreIsolated grows many lists in an interleaved order,
// mixing Append with plain appends, and demands that each list holds
// exactly what was appended to it and that Append doubles a full list's
// capacity.
func TestAppendListsAreIsolated(t *testing.T) {
	var s []int
	lists := make([][]int, 37)
	want := make([][]int, len(lists))
	rng := uint32(1)
	for step := 0; step < 5000; step++ {
		rng = rng*1664525 + 1013904223
		i := int(rng>>8) % len(lists)
		before := cap(lists[i])
		lists[i] = Append(&s, lists[i], step, 16)
		want[i] = append(want[i], step)
		if c := cap(lists[i]); before == len(want[i])-1 && c != max(2, 2*before) {
			t.Fatalf("list %d grew from cap %d to %d", i, before, c)
		}
		// Plain appends in between (as DAG.AddEdge makes) write into the
		// list's own capacity or move it out of the slab.
		if step%7 == 0 {
			j := (i + 1) % len(lists)
			lists[j] = append(lists[j], -step)
			want[j] = append(want[j], -step)
		}
	}
	for i := range lists {
		if !slices.Equal(lists[i], want[i]) {
			t.Fatalf("list %d = %v, want %v", i, lists[i], want[i])
		}
	}
}
