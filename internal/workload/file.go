package workload

import (
	"encoding/json"
	"fmt"
	"os"

	"numadag/internal/apps"
	"numadag/internal/graph"
	"numadag/internal/memory"
	"numadag/internal/rt"
)

// fileFactory imports a DAG serialized in the JSON format cmd/dagen -json
// exports ({"nodes":[{"label","weight"}],"edges":[{"from","to","weight"}]})
// and replays it as a task graph: node weights become task flops, and each edge
// becomes a dedicated deferred region of the edge's byte weight, written by
// the source task and read by the target — so the runtime's dependence
// tracker re-derives exactly the imported edges with their weights. The
// file is read and validated eagerly, at spec-resolution time; malformed
// input fails before any simulation is set up.
func fileFactory(s Spec, _ apps.Scale, _ uint64) (Workload, error) {
	if err := s.Only("path", "format"); err != nil {
		return Workload{}, err
	}
	path := s.Str("path", "")
	if path == "" {
		return Workload{}, fmt.Errorf("workload: file: missing required parameter path")
	}
	if f := s.Str("format", "json"); f != "json" {
		return Workload{}, fmt.Errorf("workload: file: unsupported format %q (only json)", f)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		return Workload{}, fmt.Errorf("workload: file: %w", err)
	}
	var d graph.DAG
	if err := json.Unmarshal(data, &d); err != nil {
		return Workload{}, fmt.Errorf("workload: file: malformed DAG in %s: %w", path, err)
	}
	if d.Len() == 0 {
		return Workload{}, fmt.Errorf("workload: file: %s holds an empty graph", path)
	}
	order, err := checkImport(&d)
	if err != nil {
		return Workload{}, fmt.Errorf("workload: file: %s: %w", path, err)
	}
	return Workload{Build: dagBuilder(&d, order)}, nil
}

// Import limits. Node weights become float64 task flops, exact only up to
// 2^53; each edge becomes a region whose bytes move as float64 flow
// volumes, so an edge may carry at most 1 TiB, which keeps volumes, and
// their sums over thousands of edges, exact too.
const (
	maxImportNodeWeight = int64(1) << 53
	maxImportEdgeBytes  = int64(1) << 40
)

// checkImport returns d's topological order, or an error if d is cyclic or
// holds a weight the runtime cannot replay exactly.
func checkImport(d *graph.DAG) ([]graph.NodeID, error) {
	order, err := d.TopoOrder()
	if err != nil {
		return nil, err
	}
	for i := 0; i < d.Len(); i++ {
		if w := d.NodeWeight(graph.NodeID(i)); w > maxImportNodeWeight {
			return nil, fmt.Errorf("node %d weight %d exceeds 2^53", i, w)
		}
	}
	for _, e := range d.EdgeList() {
		if e.Weight < 0 || e.Weight > maxImportEdgeBytes {
			return nil, fmt.Errorf("edge (%d,%d) weight %d outside [0, 2^40]", e.From, e.To, e.Weight)
		}
	}
	return order, nil
}

// dagBuilder replays an in-memory DAG through Submit, in topological order
// so every producing task precedes its consumers (Submit derives RAW edges
// from the region's last writer).
func dagBuilder(d *graph.DAG, order []graph.NodeID) func(r *rt.Runtime) error {
	return func(r *rt.Runtime) error {
		// outRegions[id] holds the region task id writes for each of its
		// out-edges, keyed by successor, created when the producer submits.
		outRegions := make([]map[graph.NodeID]*memory.Region, d.Len())
		for _, id := range order {
			var acc []rt.Access
			d.Preds(id, func(from graph.NodeID, _ int64) {
				acc = append(acc, rt.Access{Region: outRegions[from][id], Mode: rt.In})
			})
			if n := d.OutDegree(id); n > 0 {
				outRegions[id] = make(map[graph.NodeID]*memory.Region, n)
				d.Succs(id, func(to graph.NodeID, w int64) {
					reg := r.Mem().Alloc(fmt.Sprintf("e%d-%d", id, to), w, memory.Deferred, 0)
					outRegions[id][to] = reg
					acc = append(acc, rt.Access{Region: reg, Mode: rt.Out})
				})
			}
			label := d.Label(id)
			if label == "" {
				label = fmt.Sprintf("n%d", id)
			}
			r.Submit(rt.TaskSpec{
				Label:    label,
				Flops:    float64(d.NodeWeight(id)),
				Accesses: acc,
				EPSocket: rt.NoEPHint,
			})
		}
		return nil
	}
}

// FromDAG wraps an in-memory DAG as a Workload, for programmatic use (the
// file generator is this plus JSON loading). The DAG must be acyclic, with
// node weights up to 2^53 and edge weights up to 2^40 bytes; it is not
// copied and must not be mutated afterwards.
func FromDAG(name string, d *graph.DAG) (Workload, error) {
	order, err := checkImport(d)
	if err != nil {
		return Workload{}, fmt.Errorf("workload: %w", err)
	}
	return Workload{Name: name, Spec: name, Seed: 1, Build: dagBuilder(d, order)}, nil
}

func init() {
	MustRegister("file",
		"DAG imported from a JSON file as written by dagen -json [path, format]",
		fileFactory)
}
