package rt

// Hooks for the external rt_test package, whose tests drive the real
// builders (internal/apps, internal/workload import rt, so they cannot be
// imported from package rt's own tests).

// RefBuilder is the reference dependence builder (see refBuilder).
type RefBuilder struct{ b *refBuilder }

// NewRefBuilder returns a reference builder submitting into r.
func NewRefBuilder(r *Runtime) RefBuilder { return RefBuilder{newRefBuilder(r)} }

// Submit is the reference Submit.
func (b RefBuilder) Submit(spec TaskSpec) *Task { return b.b.submit(spec) }

// Barrier is the reference Barrier.
func (b RefBuilder) Barrier() { b.b.barrier() }

// DiffBuilds returns the first difference between a Submit-built runtime
// and a reference-built one (see diffBuilds).
var DiffBuilds = diffBuilds

// RaceEnabled reports whether the race detector is on.
const RaceEnabled = raceEnabled
