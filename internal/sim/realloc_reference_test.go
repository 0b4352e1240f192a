package sim

import "math"

// This file keeps the naive water-filling ladder — the seed implementation
// reallocate() used before the deferred/batched flush and the incremental
// scan structure — as a test-only reference, in the same spirit as the
// partition package's heap-based refiner reference. The production fill
// must execute bit-for-bit the same float operations: the determinism
// goldens pin simulated physics to the nanosecond, so "equivalent" here
// means identical rates, identical deadlines, identical event order, not
// "close". The equivalence suite and FuzzReallocate drive a production net
// and a reference net through the same flow churn and compare them
// exactly, and check every compared state against the max-min definition
// (checkMaxMin).
//
// The reference differs from production in two deliberate ways:
//
//   - referenceWaterfill shares none of production's fill state: it keeps
//     its own residual, unfrozen and frozen scratch, recomputes every
//     resource's share every round, scans every active flow in the
//     cap-freeze round, and finds a bottleneck's flows by testing every
//     active flow's path (crosses) — where production reads the crossing
//     lists kept up to date by StartFlow/finish, dense per-slot arrays,
//     cached shares and shrinking worklists.
//   - newReferenceNet disables same-instant batching: every StartFlow and
//     every completion redistributes immediately, the historical one
//     recompute per churn event.

// newReferenceNet returns a Net that reallocates eagerly on every churn
// event through the naive ladder.
func newReferenceNet(eng *Engine) *Net {
	n := NewNet(eng)
	n.batch = false
	n.fill = n.referenceWaterfill
	return n
}

// crosses reports whether f's path includes r.
func crosses(f *Flow, r *Resource) bool {
	for _, rr := range f.path {
		if rr == r {
			return true
		}
	}
	return false
}

// referenceWaterfill is the seed max-min fill: all-resources share scans,
// all-flows cap scans, and crosses() tests against every active flow for
// every bottleneck resource.
func (n *Net) referenceWaterfill(now Time) {
	residual := make([]float64, len(n.resources))
	unfrozen := make([]int, len(n.resources))
	frozen := make([]bool, len(n.active)) // by position in n.active
	for i, r := range n.resources {
		residual[i] = r.capacity
	}
	for _, f := range n.active {
		for _, r := range f.path {
			unfrozen[r.id]++
		}
	}
	freeze := func(i int, rate float64) {
		f := n.active[i]
		f.rate = rate
		frozen[i] = true
		for _, rr := range f.path {
			residual[rr.id] -= rate
			if residual[rr.id] < 0 {
				residual[rr.id] = 0
			}
			unfrozen[rr.id]--
		}
	}
	left := len(n.active)
	for left > 0 {
		// Bottleneck-resource share.
		share := math.Inf(1)
		for id := range n.resources {
			if unfrozen[id] == 0 {
				continue
			}
			if s := residual[id] / float64(unfrozen[id]); s < share {
				share = s
			}
		}
		// A flow whose cap is at or below the share binds first.
		capBound := false
		for i, f := range n.active {
			if !frozen[i] && f.maxRate <= share {
				freeze(i, f.maxRate)
				left--
				capBound = true
			}
		}
		if capBound {
			continue // resource shares changed; recompute
		}
		if math.IsInf(share, 1) {
			for i, f := range n.active {
				if !frozen[i] {
					f.rate = f.maxRate
					frozen[i] = true
					left--
				}
			}
			break
		}
		// Freeze every unfrozen flow crossing a bottleneck resource.
		progressed := false
		for _, r := range n.resources {
			if unfrozen[r.id] == 0 {
				continue
			}
			if residual[r.id]/float64(unfrozen[r.id]) > share*(1+1e-12) {
				continue
			}
			for i, f := range n.active {
				if frozen[i] || !crosses(f, r) {
					continue
				}
				freeze(i, share)
				left--
				progressed = true
			}
		}
		if !progressed {
			panic("sim: reference water-filling made no progress")
		}
	}
	sums := make([]float64, len(n.resources))
	for _, f := range n.active {
		for _, res := range f.path {
			sums[res.id] += f.rate
		}
	}
	for _, res := range n.resources {
		res.settle(now, sums[res.id])
	}
}
