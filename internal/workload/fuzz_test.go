package workload

import (
	"encoding/json"
	"reflect"
	"strconv"
	"testing"

	"numadag/internal/graph"
	"numadag/internal/machine"
)

// FuzzParseSpec feeds arbitrary strings to ParseSpec, the parser behind
// every -apps flag and dcsim tenant mix. It must never panic, and every
// spec it accepts must survive a round trip through its canonical
// rendering: ParseSpec(spec.String()) gives back an equal Spec.
//
// The seed corpus in testdata/fuzz/FuzzParseSpec holds a bare name, a
// parameter list out of canonical order, separators inside keys and values
// ('?' in a key, '=' in a value, an empty value), and rejected shapes (an
// empty name, a parameter without '=', a duplicate key). Corpus entries run
// as plain unit tests in normal `go test` invocations; `make fuzz-smoke`
// runs a short coverage-guided session on top.
func FuzzParseSpec(f *testing.F) {
	f.Fuzz(func(t *testing.T, s string) {
		spec, err := ParseSpec(s)
		if err != nil {
			return
		}
		canon := spec.String()
		again, err := ParseSpec(canon)
		if err != nil {
			t.Fatalf("ParseSpec(%q) accepted, but its rendering %q is rejected: %v", s, canon, err)
		}
		if !reflect.DeepEqual(again, spec) {
			t.Fatalf("round trip drifted: ParseSpec(%q) = %+v, ParseSpec(%q) = %+v", s, spec, canon, again)
		}
	})
}

// FuzzImportDAG feeds arbitrary bytes to the file workload's import path:
// json.Unmarshal into a graph.DAG (graphs above 64 nodes are skipped), then
// FromDAG and Instantiate on TwoSocketXeon. It must never panic, and every
// graph it accepts must round-trip through the runtime's dependence
// tracker: imported edge u->v of weight w is runtime edge pos[u]->pos[v]
// of weight w, where pos is the TopoOrder index (the order the builder
// submits in), and there are no other edges; node weights become task
// flops and TDG node weights; labels are kept, "n<id>" when empty.
//
// The seed corpus in testdata/fuzz/FuzzImportDAG holds a valid diamond, a
// duplicate edge (weights accumulate), a zero-weight edge, a cycle, an
// out-of-range edge, a negative weight, duplicate edges whose weights
// overflow int64, and a node weight too large to be exact as flops.
func FuzzImportDAG(f *testing.F) {
	mc := machine.TwoSocketXeon()
	f.Fuzz(func(t *testing.T, data []byte) {
		var d graph.DAG
		if err := json.Unmarshal(data, &d); err != nil || d.Len() > 64 {
			return
		}
		w, err := FromDAG("fuzz", &d)
		if err != nil {
			return
		}
		edges := d.EdgeList()
		for _, e := range edges {
			if e.Weight > 1<<24 {
				return // accepted, but too many pages to allocate per input
			}
		}
		r, err := w.Instantiate(mc)
		if err != nil {
			t.Fatalf("accepted graph failed to build: %v", err)
		}
		defer r.Release()
		order, err := d.TopoOrder()
		if err != nil {
			t.Fatalf("FromDAG accepted a cyclic graph: %v", err)
		}
		pos := make([]graph.NodeID, d.Len())
		for i, id := range order {
			pos[id] = graph.NodeID(i)
		}
		g := r.Graph()
		if g.Len() != d.Len() || g.Edges() != len(edges) {
			t.Fatalf("runtime graph has %d nodes %d edges, imported %d nodes %d edges", g.Len(), g.Edges(), d.Len(), len(edges))
		}
		for _, e := range edges {
			u, v := pos[e.From], pos[e.To]
			if !g.HasEdge(u, v) || g.EdgeWeight(u, v) != e.Weight {
				t.Fatalf("imported edge %d->%d (weight %d) became %d->%d with weight %d (present %v)",
					e.From, e.To, e.Weight, u, v, g.EdgeWeight(u, v), g.HasEdge(u, v))
			}
		}
		for i := 0; i < d.Len(); i++ {
			id := graph.NodeID(i)
			task := r.Task(pos[id])
			want := d.Label(id)
			if want == "" {
				want = "n" + strconv.Itoa(i)
			}
			if task.Label != want || g.Label(pos[id]) != want {
				t.Fatalf("node %d: label %q (TDG %q), want %q", i, task.Label, g.Label(pos[id]), want)
			}
			if task.Flops != float64(d.NodeWeight(id)) || g.NodeWeight(pos[id]) != d.NodeWeight(id) {
				t.Fatalf("node %d: weight %d became flops %v, TDG weight %d", i, d.NodeWeight(id), task.Flops, g.NodeWeight(pos[id]))
			}
		}
	})
}
