package rt

import (
	"fmt"
	"reflect"
	"slices"

	"numadag/internal/graph"
	"numadag/internal/memory"
)

// refBuilder is the dependence builder Submit and Barrier used before
// Submit committed each task with one graph.DAG.AddNodeWithPreds call: a
// map of region trackers, a heap-allocated Task per submit, and per
// dependence a HasEdge probe followed by a sorted AddEdge insert. It is the
// test-only oracle for the one-pass build path (TestBuildPathMatchesReference
// in build_oracle_test.go), as referenceWaterfill is for the fill: both
// must produce the same graph, tasks and snapshot, byte for byte.
type refBuilder struct {
	r      *Runtime
	tracks map[int]*regionTrack
}

func newRefBuilder(r *Runtime) *refBuilder {
	return &refBuilder{r: r, tracks: make(map[int]*regionTrack)}
}

func (b *refBuilder) submit(spec TaskSpec) *Task {
	r := b.r
	id := r.tdg.AddNode(spec.Label, int64(spec.Flops))
	t := &Task{
		ID:       id,
		Label:    spec.Label,
		Flops:    spec.Flops,
		Accesses: spec.Accesses,
		EPSocket: spec.EPSocket,
		Window:   r.nextWindowSlot(),
		Socket:   -1,
		Core:     -1,
		pickedBy: AnySocket,
	}
	r.tasks = append(r.tasks, t)
	if r.barrierTask != nil && r.barrierTask != t {
		bt := r.barrierTask
		bt.succs = append(bt.succs, t)
		t.nDeps++
		r.tdg.AddEdge(bt.ID, t.ID, 1)
	}
	addDep := func(from *Task, w int64) {
		if from == t {
			return
		}
		if !r.tdg.HasEdge(from.ID, t.ID) {
			from.succs = append(from.succs, t)
			t.nDeps++
		}
		r.tdg.AddEdge(from.ID, t.ID, w)
	}
	for _, a := range spec.Accesses {
		tr := b.tracks[a.Region.ID()]
		if tr == nil {
			tr = &regionTrack{}
			b.tracks[a.Region.ID()] = tr
		}
		if a.Mode.Reads() {
			if tr.lastWriter != nil {
				addDep(tr.lastWriter, a.Region.Bytes())
			}
		}
		if a.Mode.Writes() {
			if tr.lastWriter != nil {
				addDep(tr.lastWriter, 1)
			}
			for _, rd := range tr.readers {
				addDep(rd, 1)
			}
		}
	}
	for _, a := range spec.Accesses {
		tr := b.tracks[a.Region.ID()]
		if a.Mode.Writes() {
			tr.lastWriter = t
			tr.readers = tr.readers[:0]
		}
		if a.Mode.Reads() && a.Mode == In {
			tr.readers = append(tr.readers, t)
		}
	}
	return t
}

func (b *refBuilder) barrier() {
	r := b.r
	if len(r.tasks) == 0 || r.tasks[len(r.tasks)-1] == r.barrierTask {
		return
	}
	if r.windowCount > 0 {
		r.curWindow++
		r.windowCount = 0
	}
	r.barriers++
	sync := b.submit(TaskSpec{Label: fmt.Sprintf("barrier#%d", r.barriers), EPSocket: NoEPHint})
	for _, t := range r.tasks {
		if t == sync {
			continue
		}
		if len(t.succs) == 0 && !r.tdg.HasEdge(t.ID, sync.ID) {
			t.succs = append(t.succs, sync)
			sync.nDeps++
			r.tdg.AddEdge(t.ID, sync.ID, 1)
		}
	}
	r.barrierTask = sync
	r.barrierIDs = append(r.barrierIDs, sync.ID)
	r.windowCount = 0
	sync.Window = r.curWindow
}

// referenceSnap is Snap as it was before it backed every access list with
// one array and found barriers without a map.
func referenceSnap(r *Runtime) (*Snapshot, error) {
	regions := r.mem.Regions()
	rs := make([]regionSnap, len(regions))
	for i, reg := range regions {
		home := 0
		if reg.Placement() == memory.Home {
			home = int(reg.HomeOfPage(0))
		}
		rs[i] = regionSnap{name: reg.Name(), bytes: reg.Bytes(), placement: reg.Placement(), home: home}
	}
	isBarrier := make(map[graph.NodeID]bool, len(r.barrierIDs))
	for _, id := range r.barrierIDs {
		isBarrier[id] = true
	}
	ts := make([]taskSnap, len(r.tasks))
	for i, t := range r.tasks {
		var acc []accessSnap
		if len(t.Accesses) > 0 {
			acc = make([]accessSnap, len(t.Accesses))
			for j, a := range t.Accesses {
				id := a.Region.ID()
				if id < 0 || id >= len(regions) || regions[id] != a.Region {
					return nil, fmt.Errorf("rt: Snap: task %q accesses a region not allocated from the runtime's memory manager", t.Label)
				}
				acc[j] = accessSnap{region: int32(id), mode: a.Mode}
			}
		}
		ts[i] = taskSnap{label: t.Label, flops: t.Flops, ep: t.EPSocket, barrier: isBarrier[t.ID], accesses: acc}
	}
	return &Snapshot{tdg: r.tdg, regions: rs, tasks: ts}, nil
}

// diffBuilds compares a runtime built through Submit/Barrier (got) with
// one built by the reference (want): the TDG node by node (labels, weights,
// pred and succ lists in order with weights, the edge list), every task's
// identity, window, accesses, nDeps and successor order, the barrier and
// window state, and Snap(got) against referenceSnap(want). It returns the
// first difference.
func diffBuilds(got, want *Runtime) error {
	if err := diffDAG(got.tdg, want.tdg); err != nil {
		return err
	}
	if len(got.tasks) != len(want.tasks) {
		return fmt.Errorf("%d tasks, want %d", len(got.tasks), len(want.tasks))
	}
	for i, g := range got.tasks {
		w := want.tasks[i]
		if g.ID != w.ID || g.Label != w.Label || g.Flops != w.Flops || g.EPSocket != w.EPSocket || g.Window != w.Window {
			return fmt.Errorf("task %d: (%d %q %v ep=%d win=%d), want (%d %q %v ep=%d win=%d)",
				i, g.ID, g.Label, g.Flops, g.EPSocket, g.Window, w.ID, w.Label, w.Flops, w.EPSocket, w.Window)
		}
		if g.nDeps != w.nDeps {
			return fmt.Errorf("task %d (%s): nDeps %d, want %d", i, g.Label, g.nDeps, w.nDeps)
		}
		if gs, ws := taskIDs(g.succs), taskIDs(w.succs); !reflect.DeepEqual(gs, ws) {
			return fmt.Errorf("task %d (%s): succs %v, want %v", i, g.Label, gs, ws)
		}
		if len(g.Accesses) != len(w.Accesses) {
			return fmt.Errorf("task %d (%s): %d accesses, want %d", i, g.Label, len(g.Accesses), len(w.Accesses))
		}
		for j, a := range g.Accesses {
			if b := w.Accesses[j]; a.Region.ID() != b.Region.ID() || a.Mode != b.Mode {
				return fmt.Errorf("task %d (%s): access %d differs", i, g.Label, j)
			}
		}
	}
	// slices.Equal, not DeepEqual: a runtime revived from the pool carries
	// an empty, non-nil barrierIDs where a fresh one has nil.
	if got.barriers != want.barriers || !slices.Equal(got.barrierIDs, want.barrierIDs) ||
		got.curWindow != want.curWindow || got.windowCount != want.windowCount ||
		(got.barrierTask == nil) != (want.barrierTask == nil) ||
		(got.barrierTask != nil && got.barrierTask.ID != want.barrierTask.ID) {
		return fmt.Errorf("barrier/window state differs: barriers %d %v window (%d,%d), want %d %v (%d,%d)",
			got.barriers, got.barrierIDs, got.curWindow, got.windowCount,
			want.barriers, want.barrierIDs, want.curWindow, want.windowCount)
	}
	gs, err := Snap(got)
	if err != nil {
		return err
	}
	ws, err := referenceSnap(want)
	if err != nil {
		return err
	}
	if !reflect.DeepEqual(gs.regions, ws.regions) {
		return fmt.Errorf("snapshot regions differ")
	}
	if !reflect.DeepEqual(gs.tasks, ws.tasks) {
		for i := range gs.tasks {
			if !reflect.DeepEqual(gs.tasks[i], ws.tasks[i]) {
				return fmt.Errorf("snapshot task %d: %+v, want %+v", i, gs.tasks[i], ws.tasks[i])
			}
		}
		return fmt.Errorf("snapshot tasks differ")
	}
	return diffDAG(gs.Graph(), ws.Graph())
}

func taskIDs(ts []*Task) []graph.NodeID {
	ids := make([]graph.NodeID, len(ts))
	for i, t := range ts {
		ids[i] = t.ID
	}
	return ids
}

// diffDAG compares two graphs through the public API, adjacency order
// included.
func diffDAG(got, want *graph.DAG) error {
	if got.Len() != want.Len() || got.Edges() != want.Edges() {
		return fmt.Errorf("graph %d nodes %d edges, want %d nodes %d edges", got.Len(), got.Edges(), want.Len(), want.Edges())
	}
	type half struct {
		n graph.NodeID
		w int64
	}
	adj := func(each func(graph.NodeID, func(graph.NodeID, int64)), id graph.NodeID) []half {
		var hs []half
		each(id, func(n graph.NodeID, w int64) { hs = append(hs, half{n, w}) })
		return hs
	}
	for i := 0; i < got.Len(); i++ {
		id := graph.NodeID(i)
		if got.Label(id) != want.Label(id) || got.NodeWeight(id) != want.NodeWeight(id) {
			return fmt.Errorf("node %d: %q w=%d, want %q w=%d", i, got.Label(id), got.NodeWeight(id), want.Label(id), want.NodeWeight(id))
		}
		if g, w := adj(got.Preds, id), adj(want.Preds, id); !reflect.DeepEqual(g, w) {
			return fmt.Errorf("node %d preds %v, want %v", i, g, w)
		}
		if g, w := adj(got.Succs, id), adj(want.Succs, id); !reflect.DeepEqual(g, w) {
			return fmt.Errorf("node %d succs %v, want %v", i, g, w)
		}
	}
	if !reflect.DeepEqual(got.EdgeList(), want.EdgeList()) {
		return fmt.Errorf("edge lists differ")
	}
	return nil
}
