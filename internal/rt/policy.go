package rt

import "numadag/internal/sim"

// Placement constants a Policy may return from PickSocket besides a
// concrete socket index.
const (
	// AnySocket asks the runtime to place the task on the next CPU in
	// cyclic order, ignoring sockets entirely (the DFIFO behaviour).
	AnySocket = -1
	// DeferPlacement parks the task in the temporary queue; the runtime
	// re-offers it to the policy after the policy calls ReleaseDeferred
	// (used while a window partition is still being computed, §2.2).
	DeferPlacement = -2
)

// Policy decides where ready tasks run. Implementations must be
// deterministic given the runtime's seeded Rand. PickSocket is invoked every
// time a task becomes ready (and again for each re-offer of a deferred
// task); it returns a socket index, AnySocket or DeferPlacement.
type Policy interface {
	Name() string
	PickSocket(rt *Runtime, t *Task) int
}

// Preparer is implemented by policies that need a hook before execution
// starts (e.g. RGP partitions the first window here and charges its
// simulated cost).
type Preparer interface {
	Prepare(rt *Runtime)
}

// Observer receives execution lifecycle callbacks; trace.Tracer implements
// it. Observers must treat every callback as read-only: they run inside the
// event loop and anything they change (placement, queues, RNG state) would
// perturb the simulation.
type Observer interface {
	// TaskEnd fires when t completes; its Core, Socket, StartAt and EndAt
	// are final.
	TaskEnd(t *Task)
	// TransferLanded fires at the instant the last byte of one of t's
	// transfers lands, before the phase continuation runs: bytes moved
	// between memory homed on socket home and t's executing socket exec
	// (reads pull from home, writes push to it), launched at start. Only
	// non-empty transfers are reported.
	TransferLanded(t *Task, home, exec int, bytes int64, start sim.Time)
	// TaskStolen fires when an idle core robs t across sockets: victim is
	// the socket t was queued on, thief the socket of the stealing core. It
	// runs at the steal instant, before t starts (its Core/Socket fields
	// are not yet assigned).
	TaskStolen(t *Task, victim, thief int)
}

// TaskDoneHook is implemented by policies that react to completions — e.g.
// OS-style page-migration baselines that watch access patterns and move
// memory after the fact. The hook runs at the task's completion instant,
// before dependents are released.
type TaskDoneHook interface {
	TaskDone(r *Runtime, t *Task)
}

// StealVeto is implemented by policies whose placement is a hard contract:
// if VetoSteal returns true, the runtime never steals across sockets, no
// matter what Options.Steal says (intra-socket stealing stays on). The EP
// configuration uses this — an expert's hardcoded schedule is not advisory.
type StealVeto interface {
	VetoSteal() bool
}
