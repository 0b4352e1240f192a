package graph

import (
	"slices"
	"testing"
	"testing/quick"

	"numadag/internal/xrand"
)

// diamond builds a <- {b, c} <- d ... actually a->b, a->c, b->d, c->d.
func diamond(t *testing.T) (*DAG, [4]NodeID) {
	t.Helper()
	g := New()
	a := g.AddNode("a", 1)
	b := g.AddNode("b", 2)
	c := g.AddNode("c", 3)
	d := g.AddNode("d", 4)
	g.AddEdge(a, b, 10)
	g.AddEdge(a, c, 20)
	g.AddEdge(b, d, 30)
	g.AddEdge(c, d, 40)
	return g, [4]NodeID{a, b, c, d}
}

func TestAddNodesAndEdges(t *testing.T) {
	g, ids := diamond(t)
	if g.Len() != 4 || g.Edges() != 4 {
		t.Fatalf("len=%d edges=%d, want 4/4", g.Len(), g.Edges())
	}
	if !g.HasEdge(ids[0], ids[1]) || g.HasEdge(ids[1], ids[0]) {
		t.Fatal("edge direction wrong")
	}
	if w := g.EdgeWeight(ids[2], ids[3]); w != 40 {
		t.Fatalf("edge weight = %d, want 40", w)
	}
	if w := g.EdgeWeight(ids[3], ids[0]); w != 0 {
		t.Fatalf("absent edge weight = %d, want 0", w)
	}
	if g.NodeWeight(ids[3]) != 4 || g.Label(ids[3]) != "d" {
		t.Fatal("node attributes lost")
	}
}

func TestParallelEdgeAccumulates(t *testing.T) {
	g := New()
	a, b := g.AddNode("a", 1), g.AddNode("b", 1)
	g.AddEdge(a, b, 5)
	g.AddEdge(a, b, 7)
	if g.Edges() != 1 {
		t.Fatalf("parallel edge created a second edge")
	}
	if w := g.EdgeWeight(a, b); w != 12 {
		t.Fatalf("accumulated weight = %d, want 12", w)
	}
	// Predecessor side must agree.
	g.Preds(b, func(from NodeID, w int64) {
		if from != a || w != 12 {
			t.Fatalf("pred edge = (%d, %d)", from, w)
		}
	})
}

func TestSelfLoopPanics(t *testing.T) {
	g := New()
	a := g.AddNode("a", 1)
	defer func() {
		if recover() == nil {
			t.Fatal("self-loop did not panic")
		}
	}()
	g.AddEdge(a, a, 1)
}

func TestNegativeWeightsPanic(t *testing.T) {
	g := New()
	a, b := g.AddNode("a", 1), g.AddNode("b", 1)
	for _, f := range []func(){
		func() { g.AddNode("bad", -1) },
		func() { g.AddEdge(a, b, -1) },
		func() { g.SetNodeWeight(a, -2) },
	} {
		func() {
			defer func() { _ = recover() }()
			f()
			t.Error("negative weight accepted")
		}()
	}
}

func TestDegreesRootsLeaves(t *testing.T) {
	g, ids := diamond(t)
	if g.InDegree(ids[0]) != 0 || g.OutDegree(ids[0]) != 2 {
		t.Fatal("root degrees wrong")
	}
	if g.InDegree(ids[3]) != 2 || g.OutDegree(ids[3]) != 0 {
		t.Fatal("leaf degrees wrong")
	}
	roots, leaves := g.Roots(), g.Leaves()
	if len(roots) != 1 || roots[0] != ids[0] {
		t.Fatalf("roots = %v", roots)
	}
	if len(leaves) != 1 || leaves[0] != ids[3] {
		t.Fatalf("leaves = %v", leaves)
	}
}

func TestTopoOrderDiamond(t *testing.T) {
	g, _ := diamond(t)
	order, err := g.TopoOrder()
	if err != nil {
		t.Fatal(err)
	}
	pos := make(map[NodeID]int)
	for i, id := range order {
		pos[id] = i
	}
	for _, e := range g.EdgeList() {
		if pos[e.From] >= pos[e.To] {
			t.Fatalf("edge %v violates topo order %v", e, order)
		}
	}
}

func TestTopoOrderDetectsCycle(t *testing.T) {
	g := New()
	a, b, c := g.AddNode("a", 1), g.AddNode("b", 1), g.AddNode("c", 1)
	g.AddEdge(a, b, 1)
	g.AddEdge(b, c, 1)
	g.AddEdge(c, a, 1) // cycle
	if _, err := g.TopoOrder(); err == nil {
		t.Fatal("cycle not detected")
	}
	if err := g.Validate(); err == nil {
		t.Fatal("Validate missed cycle")
	}
}

func TestLevels(t *testing.T) {
	g, ids := diamond(t)
	lvl, n, err := g.Levels()
	if err != nil {
		t.Fatal(err)
	}
	if n != 3 {
		t.Fatalf("levels = %d, want 3", n)
	}
	want := map[NodeID]int{ids[0]: 0, ids[1]: 1, ids[2]: 1, ids[3]: 2}
	for id, l := range want {
		if lvl[id] != l {
			t.Errorf("level[%d] = %d, want %d", id, lvl[id], l)
		}
	}
}

func TestLevelsEmptyGraph(t *testing.T) {
	g := New()
	_, n, err := g.Levels()
	if err != nil || n != 0 {
		t.Fatalf("empty graph levels = %d, err %v", n, err)
	}
}

func TestCriticalPath(t *testing.T) {
	g, _ := diamond(t)
	// Longest weighted path: a(1) -> c(3) -> d(4) = 8.
	cp, err := g.CriticalPathWeight()
	if err != nil {
		t.Fatal(err)
	}
	if cp != 8 {
		t.Fatalf("critical path = %d, want 8", cp)
	}
}

func TestWeaklyConnectedComponents(t *testing.T) {
	g := New()
	a, b := g.AddNode("a", 1), g.AddNode("b", 1)
	c, d := g.AddNode("c", 1), g.AddNode("d", 1)
	_ = g.AddNode("lone", 1)
	g.AddEdge(a, b, 1)
	g.AddEdge(c, d, 1)
	comp, n := g.WeaklyConnectedComponents()
	if n != 3 {
		t.Fatalf("components = %d, want 3", n)
	}
	if comp[a] != comp[b] || comp[c] != comp[d] || comp[a] == comp[c] {
		t.Fatalf("component labels wrong: %v", comp)
	}
}

func TestInducedSubgraph(t *testing.T) {
	g, ids := diamond(t)
	sub, back := g.InducedSubgraph([]NodeID{ids[0], ids[1], ids[3]})
	if sub.Len() != 3 {
		t.Fatalf("subgraph len = %d", sub.Len())
	}
	// Edges inside: a->b, b->d. Edge via c is dropped.
	if sub.Edges() != 2 {
		t.Fatalf("subgraph edges = %d, want 2", sub.Edges())
	}
	if back[0] != ids[0] || back[1] != ids[1] || back[2] != ids[3] {
		t.Fatalf("back mapping = %v", back)
	}
	if sub.EdgeWeight(0, 1) != 10 || sub.EdgeWeight(1, 2) != 30 {
		t.Fatal("subgraph edge weights wrong")
	}
}

func TestInducedSubgraphDuplicatePanics(t *testing.T) {
	g, ids := diamond(t)
	defer func() {
		if recover() == nil {
			t.Fatal("duplicate node did not panic")
		}
	}()
	g.InducedSubgraph([]NodeID{ids[0], ids[0]})
}

func TestTransitiveReduction(t *testing.T) {
	g := New()
	a, b, c := g.AddNode("a", 1), g.AddNode("b", 1), g.AddNode("c", 1)
	g.AddEdge(a, b, 1)
	g.AddEdge(b, c, 1)
	g.AddEdge(a, c, 1) // redundant
	removed, err := g.TransitiveReduction()
	if err != nil {
		t.Fatal(err)
	}
	if removed != 1 {
		t.Fatalf("removed %d edges, want 1", removed)
	}
	if g.HasEdge(a, c) {
		t.Fatal("redundant edge survived")
	}
	if !g.HasEdge(a, b) || !g.HasEdge(b, c) {
		t.Fatal("necessary edge removed")
	}
}

func TestTransitiveReductionDiamondKeepsAll(t *testing.T) {
	g, _ := diamond(t)
	removed, err := g.TransitiveReduction()
	if err != nil {
		t.Fatal(err)
	}
	if removed != 0 {
		t.Fatalf("diamond has no redundant edges, removed %d", removed)
	}
}

func TestTotalWeights(t *testing.T) {
	g, _ := diamond(t)
	if g.TotalNodeWeight() != 10 {
		t.Fatalf("TotalNodeWeight = %d", g.TotalNodeWeight())
	}
	if g.TotalEdgeWeight() != 100 {
		t.Fatalf("TotalEdgeWeight = %d", g.TotalEdgeWeight())
	}
}

func TestOutOfRangePanics(t *testing.T) {
	g := New()
	g.AddNode("a", 1)
	defer func() {
		if recover() == nil {
			t.Fatal("out-of-range id did not panic")
		}
	}()
	g.AddEdge(0, 5, 1)
}

// randomDAG builds a random DAG with edges only from lower to higher IDs
// (guaranteed acyclic).
func randomDAG(r *xrand.Rand, n, extraEdges int) *DAG {
	g := NewWithCapacity(n)
	for i := 0; i < n; i++ {
		g.AddNode("", int64(r.Intn(100)+1))
	}
	for i := 0; i < extraEdges; i++ {
		a := r.Intn(n)
		b := r.Intn(n)
		if a == b {
			continue
		}
		if a > b {
			a, b = b, a
		}
		g.AddEdge(NodeID(a), NodeID(b), int64(r.Intn(1000)+1))
	}
	return g
}

// Property: topological order respects all edges on random DAGs.
func TestPropertyTopoOrderRespectsEdges(t *testing.T) {
	f := func(seed uint64, n8 uint8, e8 uint8) bool {
		n := int(n8%60) + 2
		g := randomDAG(xrand.New(seed), n, int(e8))
		order, err := g.TopoOrder()
		if err != nil {
			return false
		}
		pos := make([]int, n)
		for i, id := range order {
			pos[id] = i
		}
		for _, e := range g.EdgeList() {
			if pos[e.From] >= pos[e.To] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

// Property: transitive reduction preserves reachability.
func TestPropertyTransitiveReductionPreservesReachability(t *testing.T) {
	reach := func(g *DAG) map[[2]NodeID]bool {
		m := make(map[[2]NodeID]bool)
		for s := 0; s < g.Len(); s++ {
			seen := make([]bool, g.Len())
			stack := []NodeID{NodeID(s)}
			for len(stack) > 0 {
				v := stack[len(stack)-1]
				stack = stack[:len(stack)-1]
				g.Succs(v, func(to NodeID, _ int64) {
					if !seen[to] {
						seen[to] = true
						stack = append(stack, to)
					}
				})
			}
			for v := 0; v < g.Len(); v++ {
				if seen[v] {
					m[[2]NodeID{NodeID(s), NodeID(v)}] = true
				}
			}
		}
		return m
	}
	f := func(seed uint64) bool {
		g := randomDAG(xrand.New(seed), 25, 80)
		before := reach(g)
		if _, err := g.TransitiveReduction(); err != nil {
			return false
		}
		after := reach(g)
		if len(before) != len(after) {
			return false
		}
		for k := range before {
			if !after[k] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

// Property: induced subgraph over all nodes is the same graph.
func TestPropertyInducedSubgraphIdentity(t *testing.T) {
	f := func(seed uint64) bool {
		g := randomDAG(xrand.New(seed), 30, 60)
		all := make([]NodeID, g.Len())
		for i := range all {
			all[i] = NodeID(i)
		}
		sub, _ := g.InducedSubgraph(all)
		if sub.Len() != g.Len() || sub.Edges() != g.Edges() {
			return false
		}
		return sub.TotalEdgeWeight() == g.TotalEdgeWeight()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func BenchmarkAddEdge(b *testing.B) {
	g := NewWithCapacity(b.N + 1)
	for i := 0; i <= b.N; i++ {
		g.AddNode("", 1)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g.AddEdge(NodeID(i), NodeID(i+1), 64)
	}
}

func BenchmarkTopoOrder10k(b *testing.B) {
	g := randomDAG(xrand.New(1), 10000, 30000)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := g.TopoOrder(); err != nil {
			b.Fatal(err)
		}
	}
}

// TestAddNodeWithPredsMatchesAddEdge: committing each node with all its
// incoming edges in one call builds the same graph as AddNode followed by
// one AddEdge per edge — labels, weights, edge list and every adjacency
// list in order — whatever order the preds are handed in.
func TestAddNodeWithPredsMatchesAddEdge(t *testing.T) {
	f := func(seed uint64, n8 uint8, fan8 uint8) bool {
		r := xrand.New(seed)
		n := int(n8%80) + 1
		want, got := New(), New()
		var preds []Pred
		for i := 0; i < n; i++ {
			label, w := string(rune('a'+i%26)), int64(r.Intn(100))
			id := want.AddNode(label, w)
			preds = preds[:0]
			for k := 0; k < i && k < int(fan8%12); k++ {
				from := NodeID(r.Intn(i))
				ew := int64(r.Intn(1000))
				if want.HasEdge(from, id) {
					continue // AddNodeWithPreds takes distinct preds
				}
				want.AddEdge(from, id, ew)
				preds = append(preds, Pred{From: from, Weight: ew})
			}
			if got.AddNodeWithPreds(label, w, preds) != id {
				return false
			}
		}
		return sameGraph(t, got, want)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// TestAddNodeWithPredsListsAreIsolated: lists carved from the shared slab
// have exact capacity, so growing one through AddEdge afterwards (the path
// Barrier takes) never writes into a neighbor's list.
func TestAddNodeWithPredsListsAreIsolated(t *testing.T) {
	want, got := New(), New()
	for i := 0; i < 6; i++ {
		want.AddNode("", 1)
		var preds []Pred
		for from := 0; from < i; from++ {
			want.AddEdge(NodeID(from), NodeID(i), int64(10*i+from))
			preds = append(preds, Pred{From: NodeID(from), Weight: int64(10*i + from)})
		}
		got.AddNodeWithPreds("", 1, preds)
	}
	for _, e := range [][3]int64{{0, 5, 7}, {2, 3, 1}, {1, 4, 3}, {3, 4, 5}} {
		want.AddEdge(NodeID(e[0]), NodeID(e[1]), e[2])
		got.AddEdge(NodeID(e[0]), NodeID(e[1]), e[2])
	}
	want.AddNode("", 1)
	got.AddNodeWithPreds("", 1, nil)
	for from := 0; from < 6; from++ {
		want.AddEdge(NodeID(from), 6, 1)
		got.AddEdge(NodeID(from), 6, 1)
	}
	sameGraph(t, got, want)
}

// TestSuccSlabListsAreIsolated: succ lists carved from the slab, or packed
// by Compact, have exact capacity, so AddEdge inserting into one afterwards
// — at its front, in its middle, or past its capacity — never writes into
// the list next to it. Random DAGs built through AddNodeWithPreds (every
// other one compacted) then grown by random AddEdge calls must match the
// same edges added by AddEdge alone.
func TestSuccSlabListsAreIsolated(t *testing.T) {
	rng := uint64(12345)
	next := func(n int) int {
		rng = rng*6364136223846793005 + 1442695040888963407
		return int(rng>>33) % n
	}
	for trial := 0; trial < 40; trial++ {
		want, got := New(), New()
		n := 2 + next(60)
		for i := 0; i < n; i++ {
			want.AddNode("", 1)
			var preds []Pred
			for from := 0; from < i; from++ {
				if next(4) == 0 {
					w := int64(1 + next(9))
					want.AddEdge(NodeID(from), NodeID(i), w)
					preds = append(preds, Pred{From: NodeID(from), Weight: w})
				}
			}
			got.AddNodeWithPreds("", 1, preds)
		}
		if trial%2 == 1 {
			got.Compact()
			sameGraph(t, got, want)
			for i, s := range got.succ {
				if len(s) != cap(s) {
					t.Fatalf("trial %d: node %d succ list has len %d, cap %d after Compact", trial, i, len(s), cap(s))
				}
			}
		}
		for k := next(3 * n); k > 0; k-- {
			from := next(n - 1)
			to := from + 1 + next(n-1-from)
			w := int64(1 + next(9))
			want.AddEdge(NodeID(from), NodeID(to), w)
			got.AddEdge(NodeID(from), NodeID(to), w)
		}
		sameGraph(t, got, want)
	}
}

func TestAddNodeWithPredsRejectsBadPreds(t *testing.T) {
	for name, preds := range map[string][]Pred{
		"duplicate":        {{From: 0, Weight: 1}, {From: 1, Weight: 1}, {From: 0, Weight: 2}},
		"out of range":     {{From: 5, Weight: 1}},
		"self":             {{From: 2, Weight: 1}}, // the new node's own ID
		"negative":         {{From: 1, Weight: -1}},
		"negative node id": {{From: -1, Weight: 1}},
	} {
		t.Run(name, func(t *testing.T) {
			g := New()
			g.AddNode("a", 1)
			g.AddNode("b", 1)
			func() {
				defer func() {
					if recover() == nil {
						t.Fatal("bad preds accepted")
					}
				}()
				g.AddNodeWithPreds("c", 1, preds)
			}()
			if g.Len() != 2 || g.Edges() != 0 || g.OutDegree(0) != 0 || g.OutDegree(1) != 0 {
				t.Fatalf("rejected commit changed the graph: %d nodes, %d edges", g.Len(), g.Edges())
			}
		})
	}
}

// sameGraph reports (and logs) whether two graphs agree on every node's
// label and weight and every adjacency list in order.
func sameGraph(t *testing.T, got, want *DAG) bool {
	t.Helper()
	if got.Len() != want.Len() || got.Edges() != want.Edges() {
		t.Errorf("%d nodes %d edges, want %d nodes %d edges", got.Len(), got.Edges(), want.Len(), want.Edges())
		return false
	}
	for i := 0; i < got.Len(); i++ {
		id := NodeID(i)
		if got.Label(id) != want.Label(id) || got.NodeWeight(id) != want.NodeWeight(id) ||
			!slices.Equal(got.succ[i], want.succ[i]) || !slices.Equal(got.pred[i], want.pred[i]) {
			t.Errorf("node %d: succ %v pred %v, want succ %v pred %v", i, got.succ[i], got.pred[i], want.succ[i], want.pred[i])
			return false
		}
	}
	if !slices.Equal(got.EdgeList(), want.EdgeList()) {
		t.Error("edge lists differ")
		return false
	}
	return true
}
