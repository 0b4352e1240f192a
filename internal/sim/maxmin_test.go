package sim

import (
	"fmt"
	"math"
	"testing"
)

// Max-min optimality oracle. The equivalence suite proves that the
// production fill agrees with the reference ladder — the same algorithm —
// so a defect the two share would pass it. maxMinViolation instead checks a
// settled allocation against the definition of max-min fairness with
// per-flow caps, reading only each active flow's rate, cap and path:
//
//   - feasibility: on every resource the rates of the crossing flows (a
//     flow counted once per occurrence in its path) sum to at most the
//     capacity;
//   - every flow runs at or below its own cap;
//   - the bottleneck property: every flow below its cap crosses a
//     saturated resource on which no flow runs faster. Raising such a flow
//     would need capacity that only a flow at most as fast could give up.
//
// The fill's own tie slack (a resource whose share is within 1e-12 of the
// round's share freezes in the same round) and float rounding leave a
// bottleneck short of capacity by far less than maxMinTol.
const maxMinTol = 1e-9

// maxMinViolation returns a description of the first way n's current rates
// break max-min fairness, or nil. Rates must be settled (call between
// instants, or after a flush).
func maxMinViolation(n *Net) error {
	load := make([]float64, len(n.resources))
	fastest := make([]float64, len(n.resources))
	for _, f := range n.active {
		for _, r := range f.path {
			load[r.id] += f.rate
			fastest[r.id] = math.Max(fastest[r.id], f.rate)
		}
	}
	for _, r := range n.resources {
		if load[r.id] > r.capacity*(1+maxMinTol) {
			return fmt.Errorf("resource %s oversubscribed: rates sum to %v, capacity %v", r.name, load[r.id], r.capacity)
		}
	}
	for _, f := range n.active {
		if f.rate > f.maxRate {
			return fmt.Errorf("flow %d runs at %v, above its cap %v", f.id, f.rate, f.maxRate)
		}
		if f.rate == f.maxRate {
			continue
		}
		bottlenecked := false
		for _, r := range f.path {
			saturated := load[r.id] >= r.capacity*(1-maxMinTol)
			if saturated && fastest[r.id] <= f.rate*(1+maxMinTol) {
				bottlenecked = true
				break
			}
		}
		if !bottlenecked {
			return fmt.Errorf("flow %d runs at %v below its cap %v but crosses no saturated resource on which it is among the fastest", f.id, f.rate, f.maxRate)
		}
	}
	return nil
}

// checkMaxMin fails the test when n's current rates are not max-min fair.
func checkMaxMin(t *testing.T, tag string, n *Net) {
	t.Helper()
	if err := maxMinViolation(n); err != nil {
		t.Fatalf("%s: not max-min fair: %v", tag, err)
	}
}

// TestMaxMinOracleRejects pins that the oracle catches each kind of
// violation, starting from a fair allocation and breaking it one way at a
// time: flow a alone on r0 (capacity 8), flows b and c sharing r1
// (capacity 6), c capped at 1.
func TestMaxMinOracleRejects(t *testing.T) {
	setup := func() (*Net, []*Flow) {
		e := NewEngine()
		n := NewNet(e)
		r0 := n.NewResource("r0", 8)
		r1 := n.NewResource("r1", 6)
		fs := []*Flow{
			n.StartFlow(1e6, []*Resource{r0}, nil),
			n.StartFlow(1e6, []*Resource{r1}, nil),
			n.StartFlowCapped(1e6, []*Resource{r1}, 1, nil),
		}
		n.flush()
		return n, fs
	}
	n, fs := setup()
	checkMaxMin(t, "fair", n)
	if fs[0].rate != 8 || fs[1].rate != 5 || fs[2].rate != 1 {
		t.Fatalf("fill gave %v %v %v, want 8 5 1", fs[0].rate, fs[1].rate, fs[2].rate)
	}
	for _, c := range []struct {
		name   string
		mutate func([]*Flow)
	}{
		{"oversubscribed", func(fs []*Flow) { fs[0].rate = 9 }},
		{"above cap", func(fs []*Flow) { fs[2].rate, fs[1].rate = 1.5, 4.5 }},
		{"unsaturated", func(fs []*Flow) { fs[0].rate = 7 }},
		{"not the fastest", func(fs []*Flow) { fs[1].rate, fs[2].rate = 5.5, 0.5 }},
	} {
		n, fs := setup()
		c.mutate(fs)
		if err := maxMinViolation(n); err == nil {
			t.Errorf("%s: oracle accepted a broken allocation", c.name)
		}
	}
}
