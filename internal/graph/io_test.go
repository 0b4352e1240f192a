package graph

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"
)

func TestJSONRoundTrip(t *testing.T) {
	g, _ := diamond(t)
	data, err := json.Marshal(g)
	if err != nil {
		t.Fatal(err)
	}
	var back DAG
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatal(err)
	}
	if back.Len() != g.Len() || back.Edges() != g.Edges() {
		t.Fatalf("round trip lost structure: %d/%d vs %d/%d",
			back.Len(), back.Edges(), g.Len(), g.Edges())
	}
	for _, e := range g.EdgeList() {
		if back.EdgeWeight(e.From, e.To) != e.Weight {
			t.Fatalf("edge %v weight changed", e)
		}
	}
	for i := 0; i < g.Len(); i++ {
		id := NodeID(i)
		if back.NodeWeight(id) != g.NodeWeight(id) || back.Label(id) != g.Label(id) {
			t.Fatalf("node %d attributes changed", i)
		}
	}
}

func TestUnmarshalRejectsBadInput(t *testing.T) {
	cases := []string{
		`{"nodes":[{"weight":1}],"edges":[{"from":0,"to":5,"weight":1}]}`, // range
		`{"nodes":[{"weight":1}],"edges":[{"from":0,"to":0,"weight":1}]}`, // self-loop
		`{"nodes":[{"weight":-1}],"edges":[]}`,                            // negative node
		`{"nodes":[{"weight":1},{"weight":1}],"edges":[{"from":0,"to":1,"weight":-2}]}`,
		// parallel edges whose accumulated weight overflows int64
		`{"nodes":[{"weight":1},{"weight":1}],"edges":[{"from":0,"to":1,"weight":9223372036854775807},{"from":0,"to":1,"weight":1}]}`,
		`not json`,
	}
	for i, c := range cases {
		var g DAG
		if err := json.Unmarshal([]byte(c), &g); err == nil {
			t.Errorf("case %d accepted", i)
		}
	}
}

func TestDOTOutput(t *testing.T) {
	g, _ := diamond(t)
	var buf bytes.Buffer
	part := []int32{0, 0, 1, 1}
	if err := g.DOT(&buf, "test", part); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"digraph", "n0 -> n1", "n2 -> n3", "p0", "p1"} {
		if !strings.Contains(out, want) {
			t.Errorf("DOT output missing %q", want)
		}
	}
}

func TestDOTNilPartition(t *testing.T) {
	g, _ := diamond(t)
	var buf bytes.Buffer
	if err := g.DOT(&buf, "plain", nil); err != nil {
		t.Fatal(err)
	}
	if strings.Contains(buf.String(), "p0") {
		t.Error("nil partition produced part annotations")
	}
}

func TestDOTEscapesLabels(t *testing.T) {
	g := New()
	g.AddNode(`quote"inside`, 1)
	var buf bytes.Buffer
	if err := g.DOT(&buf, "esc", nil); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), `quote\"inside`) {
		t.Error("label not escaped")
	}
}
