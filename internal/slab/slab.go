// Package slab grows many small append-only lists out of shared chunks.
//
// A plain append reallocates each list on its own as it grows; Append
// carves the grown list from the unused tail of a grow-only slab instead,
// so a build of many lists pays one allocation per chunk. The task-graph
// builders use it for successor lists.
package slab

// Append appends v to list and returns the result, as append does. A full
// list moves to a freshly carved region of *slab with twice its capacity
// (at least 2). The region has exact capacity, so a later append to the
// list can never write into a neighbouring list. When the slab's tail is
// too short, a new chunk starts with at least minChunk elements and twice
// the old chunk's capacity. Regions a list moves out of stay in their
// chunk, unused, for as long as the chunk lives.
func Append[T any](slab *[]T, list []T, v T, minChunk int) []T {
	if n := len(list); n == cap(list) {
		c := max(2, 2*n)
		s, k := *slab, len(*slab)
		if cap(s)-k < c {
			s, k = make([]T, 0, max(minChunk, 2*cap(s), c)), 0
		}
		s = s[:k+c]
		grown := s[k : k+n : k+c]
		copy(grown, list)
		list, *slab = grown, s
	}
	return append(list, v)
}
