package sim

import (
	"fmt"
	"math"
)

// Resource is a shared capacity, in bytes per nanosecond (numerically equal
// to GB/s), over which fluid flows compete: a socket's memory controller or
// an inter-socket link. Resources are created through Net.NewResource so the
// network can index them densely.
type Resource struct {
	id       int
	name     string
	capacity float64 // bytes/ns

	// crossing lists the active flows whose path includes this resource, in
	// ascending flow-id order, once per path occurrence. StartFlow appends,
	// finish and Reset remove; the water-filling pass only reads it.
	crossing []*Flow

	// Utilization accounting: byte-time integral of allocated rate.
	carried    float64 // total bytes carried so far
	rate       float64 // currently allocated rate (sum over flows)
	lastUpdate Time
}

// Carried returns the total bytes the resource has transported so far,
// progressed to the given time.
func (r *Resource) Carried(now Time) float64 {
	return r.carried + r.rate*float64(now-r.lastUpdate)
}

// Utilization returns the average fraction of capacity used over [0, now].
func (r *Resource) Utilization(now Time) float64 {
	if now <= 0 {
		return 0
	}
	return r.Carried(now) / (r.capacity * float64(now))
}

// settle folds the running rate into the carried integral at time now.
func (r *Resource) settle(now Time, newRate float64) {
	r.carried += r.rate * float64(now-r.lastUpdate)
	r.rate = newRate
	r.lastUpdate = now
}

// Name returns the diagnostic name given at creation.
func (r *Resource) Name() string { return r.name }

// Rate returns the aggregate allocated rate in bytes/ns — the sum of the
// fair shares of every active flow crossing the resource, as of the last
// reallocation. Unlike Flow.Rate it never forces a flush: it is meant for
// samplers that run as engine flushers registered after the Net's own (so
// they read settled post-fill values) and must not perturb the network.
func (r *Resource) Rate() float64 { return r.rate }

// Capacity returns the resource capacity in bytes per nanosecond.
func (r *Resource) Capacity() float64 { return r.capacity }

// ActiveFlows returns the number of flows currently crossing the resource.
func (r *Resource) ActiveFlows() int { return len(r.crossing) }

// dropFlow removes one occurrence of f from the crossing list, keeping the
// ascending-id order.
func (r *Resource) dropFlow(f *Flow) {
	c := r.crossing
	for i, g := range c {
		if g == f {
			copy(c[i:], c[i+1:])
			c[len(c)-1] = nil
			r.crossing = c[:len(c)-1]
			return
		}
	}
}

// Flow is an in-flight transfer of a byte volume across a path of resources.
//
// Flow structs are recycled: the *Flow returned by StartFlow is valid for
// inspection while the flow is active and remains readable after completion,
// but only until the next StartFlow call on the same Net — at that point the
// struct may be reused for the new flow. Callers that need post-completion
// data should copy it out in the done callback.
type Flow struct {
	id         int
	volume     float64 // total bytes of the transfer
	remaining  float64 // bytes left to move
	rate       float64 // bytes/ns, current max-min allocation
	maxRate    float64 // per-flow rate cap (source concurrency limit)
	path       []*Resource
	lastUpdate Time
	done       func()
	net        *Net
	finished   bool

	// Reallocation / completion-tracking state, owned by Net.
	idx      int    // position in Net.active: the flow's slot in the fill arrays
	deadline Time   // completion event time as of the last reallocation
	dseq     uint64 // tiebreaker mirroring engine event seq order
	starved  bool   // rate is 0 (or non-finite volume math): no deadline
}

// ID returns the flow's network-unique id. Ids are assigned in start order
// and never reused within a run, so they identify a flow even after its
// struct is recycled.
func (f *Flow) ID() int { return f.id }

// Path returns the contended resources the flow crosses. The slice is the
// caller-supplied path, shared and read-only; it is valid while the flow is
// active (it is dropped at completion, after the end hook runs).
func (f *Flow) Path() []*Resource { return f.path }

// Volume returns the total byte volume of the transfer.
func (f *Flow) Volume() float64 { return f.volume }

// Remaining returns the bytes not yet transferred, progressed to the current
// simulated time.
func (f *Flow) Remaining() float64 {
	if f.finished {
		return 0
	}
	f.net.flush() // deferred reallocation: refresh the rate before reading
	elapsed := float64(f.net.eng.Now() - f.lastUpdate)
	rem := f.remaining - elapsed*f.rate
	if rem < 0 {
		rem = 0
	}
	return rem
}

// Rate returns the current fair-share rate in bytes/ns.
func (f *Flow) Rate() float64 {
	if !f.finished {
		f.net.flush() // deferred reallocation: refresh before reading
	}
	return f.rate
}

// Net is a fluid-flow network bound to an Engine. All methods must be called
// from the engine goroutine (the simulator is single-threaded by design).
//
// # Incremental reallocation
//
// Starting or finishing a flow invalidates rates, but the recompute is
// deferred: churn marks the network dirty, parks the completion event on a
// far-future placeholder and requests the Net's own flusher, and the engine
// runs it once, just before the clock leaves the current instant. That batches
// same-instant churn — a task fanning out transfers to several home
// sockets, or a wave of flows finishing at one timestamp, pays for one
// redistribution instead of one per event. Deferral is observationally
// exact: intermediate same-instant rates would exist for zero simulated
// time, remaining-byte accounting is progressed eagerly per event, the
// flush reassigns deadlines at the same instant an eager recompute would
// have, and the completion event keeps the tie rank the eager design gave
// it — its scheduling seq is claimed at the churn point and the flush only
// moves the placeholder to the real deadline (see noteChurn and
// TestSameInstantTieOrderMatchesEager). Rates become observable only
// between instants, or through Flow.Rate/Remaining, which force the flush.
//
// Outside the fill, per-event work skips what did not change: the flush
// picks the due flow while it assigns deadlines and the Net keeps that pick
// for the completion event, progressAll runs once per instant (rates change
// only at a flush, at an instant the flows were already progressed to), and
// noteChurn re-arms the placeholder in place.
//
// The fill itself stays a whole-network water-filling pass that executes
// bit-for-bit the float operations of the naive ladder — the determinism
// goldens pin simulated physics down to the nanosecond, so the fill must be
// exactly equivalent, and the equivalence suite and FuzzReallocate hold it
// to the test-only reference implementation. Its cost tracks the flows that
// cross contended resources instead of all-resources x all-flows scans:
//
//   - Every Resource keeps its crossing list (the active flows whose path
//     includes it, ascending flow id) up to date as flows start and finish,
//     so a fill never rebuilds one. A bottleneck resource freezes exactly
//     the flows on its own list.
//   - Per-fill flow state — cap, rate, frozen — lives in dense arrays
//     indexed by flow slot (Flow.idx, the position in the active slice), so
//     the cap-freeze round scans flat arrays, not *Flow structs.
//   - Shrinking worklists of unfrozen slots and of resources that still
//     carry unfrozen flows replace the full scans, a resource's share is
//     recomputed only after a freeze touched it, and the cap-freeze round is
//     skipped while the smallest unfrozen cap is above the share.
//
// A further restriction — water-filling only the connected component of
// resources the changed flow crosses, leaving other components' rates
// untouched — is deliberately NOT done, although the crossing lists make it
// cheap: with per-flow rate caps the historical global ladder freezes
// cap-bound flows in rounds driven by the global minimum share, so another
// component's share can split one component's cap-freeze batch and change
// the order residual capacities are subtracted in. Per-component fills
// reorder those subtractions, and float subtraction is not associative:
// rates drift by ulps, ceil'd deadlines by nanoseconds, and whole schedules
// follow (6 of the 195 determinism goldens moved when it was tried). The
// component fill would be bit-exact only against a per-component reference,
// not against the recorded history.
type Net struct {
	eng       *Engine
	resources []*Resource
	active    []*Flow // in-flight flows, ascending id (deterministic order)
	freeFlows []*Flow // recycled Flow structs
	nextFlow  int

	// Per-resource fill scratch, indexed by resource id. liveRes is the
	// round worklist of resources with unfrozen flows, ascending id.
	rf      []resFill
	liveRes []int32

	// Per-slot fill state, indexed by Flow.idx; len == the peak active
	// count, so a fill never allocates. live is the round worklist of
	// unfrozen slots, ascending (= ascending flow id).
	caps   []float64
	rates  []float64
	frozen []bool
	live   []int32

	// Deferred-reallocation state. batch controls same-instant coalescing:
	// when false every churn event flushes immediately (one redistribution
	// per start/finish, the historical behaviour); the equivalence tests
	// use it to pin batching against eager recomputation. flushing guards
	// against reentry: Flow.Rate/Remaining force a flush, and nothing stops
	// user code (an accounting hook, a sampler) from calling them while a
	// fill is already running — mid-flush the rates being read are the ones
	// the fill is about to settle, so the reentrant call must be a no-op,
	// not a second fill over half-updated scratch state.
	dirty    bool
	batch    bool
	flushing bool

	// fill runs one water-filling pass at the given instant, settling the
	// resource integrals. Production uses (*Net).waterfill; the equivalence
	// suite swaps in the naive reference ladder.
	fill func(Time)

	// flusher is the handle of the Net's end-of-instant flush; churn
	// requests it, and only it, from the engine.
	flusher Flusher

	// progressedAt is the instant progressAll last ran at (-1 after
	// creation and Reset). Every active flow has been progressed to it, so
	// a second call at the same instant has nothing to do.
	progressedAt Time

	// Single earliest-completion event; completeFn is allocated once so
	// rescheduling never creates a new closure. due is the flow the armed
	// event belongs to — the earliestDue pick of the flush or armCompletion
	// that armed it — so onComplete need not search for it again.
	pending    Timer
	completeFn func()
	due        *Flow
	dcounter   uint64 // deadline assignment counter (see Flow.dseq)

	// TotalBytes accumulates the volume completed through the network,
	// a convenient global traffic counter for statistics.
	TotalBytes float64

	// Flow lifecycle hooks (SetFlowHooks). Both are nil on the hot path:
	// observability is opt-in and the nil checks keep the untraced network
	// allocation-free and branch-cheap.
	onFlowStart func(*Flow)
	onFlowEnd   func(*Flow)
}

// resFill is one resource's water-filling state during a fill.
type resFill struct {
	residual float64 // capacity not yet claimed by frozen flows
	share    float64 // residual/unfrozen, valid while !stale
	unfrozen int     // crossing-list entries whose flow is not yet frozen
	stale    bool    // a freeze touched the resource since share was computed
}

// NewNet creates an empty flow network driven by eng and registers its
// end-of-instant flush with the engine.
func NewNet(eng *Engine) *Net {
	n := &Net{eng: eng, batch: true, progressedAt: -1}
	n.completeFn = n.onComplete
	n.fill = n.waterfill
	n.flusher = eng.AddFlusher(n.flush)
	return n
}

// NewResource registers a shared resource with the given capacity in
// bytes per nanosecond (== GB/s). Capacity must be positive.
func (n *Net) NewResource(name string, capacity float64) *Resource {
	if capacity <= 0 {
		panic(fmt.Sprintf("sim: resource %q with non-positive capacity %v", name, capacity))
	}
	r := &Resource{id: len(n.resources), name: name, capacity: capacity}
	n.resources = append(n.resources, r)
	n.rf = append(n.rf, resFill{})
	n.liveRes = append(n.liveRes, 0)
	return r
}

// SetFlowHooks installs flow lifecycle callbacks: onStart fires when a flow
// enters the active set (before its first rate is assigned — rates of the
// new instant settle at the end-of-instant flush), onEnd when its last byte
// lands, before the completion callback and before the struct is recycled.
// Hooks observe only: they must not start flows, schedule events or mutate
// the network, and they see the *Flow handle subject to the recycling
// contract (copy what outlives the callback). Zero-byte and empty-path
// flows complete immediately and never reach the hooks. Hooks survive
// Reset, like the engine's registered flushers.
func (n *Net) SetFlowHooks(onStart, onEnd func(*Flow)) {
	n.onFlowStart, n.onFlowEnd = onStart, onEnd
}

// StartFlow begins moving bytes across path and calls done (if non-nil) when
// the last byte arrives. A flow with an empty path or zero bytes completes
// after zero simulated time (via an immediate event, preserving event order).
// The returned flow can be inspected but not cancelled; flows always run to
// completion. See Flow for the handle-recycling contract.
func (n *Net) StartFlow(bytes float64, path []*Resource, done func()) *Flow {
	return n.StartFlowCapped(bytes, path, math.Inf(1), done)
}

// StartFlowCapped is StartFlow with an additional per-flow rate ceiling in
// bytes/ns. The cap models a source that cannot saturate the path on its own
// — e.g. a single core whose outstanding-miss window limits its achievable
// memory bandwidth. A non-positive cap panics.
func (n *Net) StartFlowCapped(bytes float64, path []*Resource, maxRate float64, done func()) *Flow {
	if bytes < 0 {
		panic(fmt.Sprintf("sim: negative flow volume %v", bytes))
	}
	if maxRate <= 0 {
		panic(fmt.Sprintf("sim: non-positive flow rate cap %v", maxRate))
	}
	if bytes == 0 || len(path) == 0 {
		// Immediate completion; never enters the active set or the pool.
		n.nextFlow++
		f := &Flow{
			id:         n.nextFlow,
			volume:     bytes,
			maxRate:    maxRate,
			path:       path,
			lastUpdate: n.eng.Now(),
			net:        n,
			finished:   true,
		}
		n.TotalBytes += bytes
		if done != nil {
			n.eng.After(0, done)
		} else {
			n.eng.After(0, noop)
		}
		return f
	}
	n.nextFlow++
	var f *Flow
	if k := len(n.freeFlows); k > 0 {
		f = n.freeFlows[k-1]
		n.freeFlows = n.freeFlows[:k-1]
	} else {
		f = &Flow{}
	}
	*f = Flow{
		id:         n.nextFlow,
		volume:     bytes,
		remaining:  bytes,
		maxRate:    maxRate,
		path:       path,
		lastUpdate: n.eng.Now(),
		done:       done,
		net:        n,
	}
	n.progressAll()
	f.idx = len(n.active)
	n.active = append(n.active, f) // ids are monotonic: append keeps order
	if len(n.active) > len(n.caps) {
		n.caps = append(n.caps, 0)
		n.rates = append(n.rates, 0)
		n.frozen = append(n.frozen, false)
		n.live = append(n.live, 0)
	}
	for _, r := range f.path {
		r.crossing = append(r.crossing, f) // ascending id, as for active
	}
	n.noteChurn()
	if n.onFlowStart != nil {
		n.onFlowStart(f)
	}
	if !n.batch {
		n.flush()
	}
	return f
}

// noop keeps zero-work flows on the event queue (their completion still
// occupies one engine step, preserving event ordering) without allocating a
// closure per flow.
func noop() {}

// ActiveFlows returns the number of in-flight flows.
func (n *Net) ActiveFlows() int { return len(n.active) }

// progressAll advances every active flow's remaining volume to the current
// time using its rate since the last update. Rates change only at a flush,
// which runs at an instant the flows were already progressed to, and a
// flow starts progressed to its start instant, so a second call within an
// instant would find zero elapsed time on every flow and returns at once.
func (n *Net) progressAll() {
	now := n.eng.Now()
	if now == n.progressedAt {
		return
	}
	n.progressedAt = now
	for _, f := range n.active {
		elapsed := float64(now - f.lastUpdate)
		if elapsed > 0 {
			f.remaining -= elapsed * f.rate
			if f.remaining < 1e-9 {
				f.remaining = 0
			}
		}
		f.lastUpdate = now
	}
}

// freeze fixes the rate of the flow in slot i (crossing path) and removes
// its demand from the residual capacities, marking each touched resource's
// cached share stale. Part of the water-filling loop in waterfill.
func (n *Net) freeze(i int, path []*Resource, rate float64) {
	n.rates[i] = rate
	n.frozen[i] = true
	for _, rr := range path {
		r := &n.rf[rr.id]
		r.residual -= rate
		if r.residual < 0 {
			r.residual = 0
		}
		r.unfrozen--
		r.stale = true
	}
}

// sentinelTime parks the completion-event placeholder beyond any reachable
// deadline; the end-of-instant flush always reschedules or stops it before
// the clock could get there.
const sentinelTime = Time(math.MaxInt64)

// noteChurn records that a flow just started or finished: rates are stale
// and must be recomputed before the current instant ends. The armed
// completion event is re-armed (Engine.Rearm: the same order as Stop and a
// fresh At) as a far-future placeholder, so it can never fire on stale
// deadlines — and, crucially, the placeholder claims the completion event's
// scheduling seq here, at the churn point, exactly where the historical
// eager recompute re-armed its timer. The flush only moves the placeholder
// to the real deadline (Engine.Reschedule keeps the seq), so a tie between
// the completion and an event scheduled later in the same instant resolves
// exactly as it did under one-recompute-per-churn.
func (n *Net) noteChurn() {
	n.pending = n.eng.Rearm(n.pending, sentinelTime, n.completeFn)
	if !n.dirty {
		n.dirty = true
		n.eng.RequestFlush(n.flusher)
	}
}

// flush applies the deferred reallocation: one water-filling pass over the
// network, then fresh completion deadlines and a re-armed completion event.
// It is the Net's end-of-instant flusher, and Flow.Rate/Remaining and the
// unbatched (batch=false) churn path force it inline. A no-op when no churn
// is pending, so forced flushes (Flow.Rate, the engine's end-of-instant
// hook, RunUntil's horizon check) are free on a clean network; a no-op as
// well when a flush is already running on this Net (see Net.flushing).
func (n *Net) flush() {
	if !n.dirty || n.flushing {
		return
	}
	n.flushing = true
	n.dirty = false
	now := n.eng.Now()
	if len(n.active) == 0 {
		for _, r := range n.resources {
			r.settle(now, 0)
		}
		n.pending.Stop()
		n.pending = Timer{}
		n.due = nil
		n.flushing = false
		return
	}
	n.fill(now)
	// Assign fresh completion deadlines in flow-ID order — mirroring the
	// (time, seq) order per-flow timers would have been scheduled in — and
	// pick the earliest (deadline, dseq) in the same pass: dseq ascends with
	// the visit order, so the first flow at the smallest deadline wins. The
	// pass covers every active flow, not only those whose rate changed: the
	// historical ladder recomputed every deadline from the current instant,
	// and the ceil-rounding of remaining/rate depends on that instant, so
	// skipping a flow here could drift its deadline a nanosecond from the
	// reference.
	var best *Flow
	for _, f := range n.active {
		dt, ok := completionDelay(f.remaining, f.rate)
		n.dcounter++
		f.dseq = n.dcounter
		f.starved = !ok
		if !ok {
			continue
		}
		f.deadline = now + dt
		if best == nil || f.deadline < best.deadline {
			best = f
		}
	}
	// Move the placeholder claimed by the last churn to the real deadline,
	// keeping its seq (see noteChurn).
	n.due = best
	if best == nil {
		n.pending.Stop()
		n.pending = Timer{}
		n.flushing = false
		return
	}
	if !n.eng.Reschedule(n.pending, best.deadline) {
		// No live placeholder (defensive — noteChurn always arms one while
		// dirty): fall back to a fresh event.
		n.pending = n.eng.At(best.deadline, n.completeFn)
	}
	n.flushing = false
}

// waterfill computes the max-min fair rate for every active flow
// (water-filling with per-flow caps) and settles the resource integrals.
//
// Water-filling: repeatedly find the binding constraint — either the
// bottleneck resource (smallest per-unfrozen-flow fair share) or an unfrozen
// flow whose own cap is at or below that share — freeze the affected flows,
// subtract their consumption from every resource they cross, repeat.
//
// The pass is bit-for-bit equivalent to the naive ladder (kept as the
// test-only referenceWaterfill): identical float operations in identical
// order. Only the scanning differs (see Net, "Incremental reallocation"),
// and each shortcut leaves the arithmetic alone:
//
//   - A cached share is reused only while no freeze has touched its
//     resource, so it is the quotient of the operands the ladder divides.
//   - minCap is the smallest cap among the unfrozen at the last cap scan.
//     Freezing only removes flows, so it stays a lower bound, and while it
//     is above the share no flow can be cap-bound: skipping the scan skips
//     no freeze.
//   - Crossing lists and the unfrozen-slot worklist are in ascending flow
//     id, the order the ladder visits flows in.
//
// Everything runs on per-Net scratch buffers: no allocation, no map
// iteration, no sorting.
func (n *Net) waterfill(now Time) {
	nf := len(n.active)
	caps, rates, frozen := n.caps[:nf], n.rates[:nf], n.frozen[:nf]
	live := n.live[:nf]
	minCap := math.Inf(1)
	for i, f := range n.active {
		c := f.maxRate
		caps[i] = c
		frozen[i] = false
		live[i] = int32(i)
		if c < minCap {
			minCap = c
		}
	}
	rf := n.rf
	lr := n.liveRes[:0]
	for id, r := range n.resources {
		rf[id] = resFill{residual: r.capacity, unfrozen: len(r.crossing), stale: true}
		if len(r.crossing) > 0 {
			lr = append(lr, int32(id))
		}
	}
	left := nf
	for left > 0 {
		// Bottleneck-resource share, over resources that still carry
		// unfrozen flows (compacted in place; a resource whose flows all
		// froze can never regain one within this fill).
		share := math.Inf(1)
		k := 0
		for _, id := range lr {
			r := &rf[id]
			if r.unfrozen == 0 {
				continue
			}
			lr[k] = id
			k++
			if r.stale {
				r.share = r.residual / float64(r.unfrozen)
				r.stale = false
			}
			if r.share < share {
				share = r.share
			}
		}
		lr = lr[:k]
		// A flow whose cap is at or below the share binds first. The
		// worklist is compacted in the same stable pass, preserving the
		// ascending-id visit order of the naive ladder.
		if minCap <= share {
			capBound := false
			minCap = math.Inf(1)
			k = 0
			for _, i := range live {
				if frozen[i] {
					continue
				}
				c := caps[i]
				if c <= share {
					n.freeze(int(i), n.active[i].path, c)
					left--
					capBound = true
					continue
				}
				if c < minCap {
					minCap = c
				}
				live[k] = i
				k++
			}
			live = live[:k]
			if capBound {
				continue // resource shares changed; recompute
			}
		}
		if math.IsInf(share, 1) {
			// No resource has a finite share and no flow was cap-bound, so
			// only NaN-capped flows are left (any other cap is <= +Inf):
			// the ladder pins them to their cap without touching the
			// residuals.
			for _, i := range live {
				if !frozen[i] {
					rates[i] = caps[i]
					frozen[i] = true
					left--
				}
			}
			break
		}
		// Freeze every unfrozen flow crossing a bottleneck resource,
		// walking the resource's own crossing list. Freezes earlier in this
		// pass can change a later resource's share, so stale ones divide
		// again, as the ladder's fresh division would.
		progressed := false
		for _, id := range lr {
			r := &rf[id]
			if r.unfrozen == 0 {
				continue
			}
			if r.stale {
				r.share = r.residual / float64(r.unfrozen)
				r.stale = false
			}
			if r.share > share*(1+1e-12) {
				continue
			}
			for _, f := range n.resources[id].crossing {
				if frozen[f.idx] {
					continue
				}
				n.freeze(f.idx, f.path, share)
				left--
				progressed = true
			}
		}
		if !progressed {
			panic("sim: max-min water-filling made no progress")
		}
	}
	// Publish the rates and settle per-resource rate integrals. Each sum
	// runs down the crossing list — flows ascending, a flow listed once per
	// path occurrence — which is the ladder's addition order.
	for i, f := range n.active {
		f.rate = rates[i]
	}
	for _, res := range n.resources {
		sum := 0.0
		for _, f := range res.crossing {
			sum += f.rate
		}
		res.settle(now, sum)
	}
}

// reallocate forces an immediate from-scratch recompute regardless of
// pending churn. Benchmarks use it to measure one full fill.
func (n *Net) reallocate() {
	n.noteChurn()
	n.flush()
}

// completionDelay returns the event delay for a flow with the given
// remaining volume and rate. ok is false when the flow is starved (rate 0 —
// it will be re-examined at the next reallocation) so the caller never
// divides into +Inf and never converts a non-finite float to Time.
func completionDelay(remaining, rate float64) (dt Time, ok bool) {
	if rate <= 0 {
		return 0, false
	}
	if math.IsInf(rate, 1) {
		return 0, true
	}
	d := math.Ceil(remaining / rate)
	if d >= math.MaxInt64 {
		// Degenerate rate underflow; clamp rather than overflow Time.
		return 0, false
	}
	return Time(d), true
}

// earliestDue returns the active flow with the smallest (deadline, dseq) —
// the flow whose dedicated timer would fire next under a one-event-per-flow
// design. Starved flows have no deadline and are skipped. flush (inline, in
// its deadline pass) and armCompletion must both select by this exact rule
// and record the pick in Net.due, which onComplete processes; the
// equivalence suite checks the recorded pick against this scan at every
// completion.
func (n *Net) earliestDue() *Flow {
	var best *Flow
	for _, f := range n.active {
		if f.starved {
			continue
		}
		if best == nil || f.deadline < best.deadline ||
			(f.deadline == best.deadline && f.dseq < best.dseq) {
			best = f
		}
	}
	return best
}

// armCompletion (re)schedules the Net's single completion event for the
// earliest flow deadline, if any flow has one.
func (n *Net) armCompletion() {
	best := n.earliestDue()
	n.due = best
	n.pending.Stop()
	if best == nil {
		n.pending = Timer{}
		return
	}
	n.pending = n.eng.At(best.deadline, n.completeFn)
}

// onComplete fires when the earliest flow deadline arrives. It processes
// exactly the flow that deadline belongs to — the same flow whose dedicated
// timer would have fired under a one-event-per-flow design — finishing it,
// or, when ceil rounding made the event marginally early, pushing that
// flow's deadline out by the residue (at least 1ns) and re-arming.
func (n *Net) onComplete() {
	n.pending = Timer{}
	n.progressAll()
	now := n.eng.Now()
	due := n.due
	n.due = nil
	if due == nil {
		return
	}
	if due.remaining > 1e-6 {
		dt, ok := completionDelay(due.remaining, due.rate)
		if !ok {
			due.starved = true // re-examined at the next reallocation
		} else {
			if dt < 1 {
				dt = 1
			}
			n.dcounter++
			due.deadline = now + dt
			due.dseq = n.dcounter
		}
		n.armCompletion()
		return
	}
	n.finish(due)
}

// finish completes f: removes it from the active set, marks its component
// for reallocation (flushed immediately when batching is off, or at the end
// of the instant — which also re-arms the completion event), runs the
// callback, and recycles the struct.
func (n *Net) finish(f *Flow) {
	f.finished = true
	f.remaining = 0
	n.removeActive(f)
	for _, r := range f.path {
		r.dropFlow(f)
	}
	n.TotalBytes += f.volume
	n.noteChurn()
	if !n.batch {
		n.flush()
	}
	if n.onFlowEnd != nil {
		n.onFlowEnd(f)
	}
	done := f.done
	f.done = nil
	f.path = nil
	if done != nil {
		done()
	}
	n.freeFlows = append(n.freeFlows, f)
}

// Reset returns the network to its initial state — no active flows, zeroed
// resource integrals and traffic counters — while keeping the registered
// resources, the recycled-Flow pool and every grown scratch buffer. It must
// be paired with a reset of the driving engine (the parked completion
// placeholder is abandoned here; the engine reset invalidates it wholesale).
// Machine.Reset is the intended caller.
func (n *Net) Reset() {
	for _, f := range n.active {
		f.finished = true
		f.done = nil
		f.path = nil
		n.freeFlows = append(n.freeFlows, f)
	}
	n.active = n.active[:0]
	for _, r := range n.resources {
		clear(r.crossing)
		r.crossing = r.crossing[:0]
		r.carried = 0
		r.rate = 0
		r.lastUpdate = 0
	}
	n.nextFlow = 0
	n.dirty = false
	n.flushing = false
	n.progressedAt = -1
	n.pending = Timer{}
	n.due = nil
	n.dcounter = 0
	n.TotalBytes = 0
}

// removeActive deletes f from the dense active slice, preserving the
// ascending-ID order. Active counts are small (bounded by in-flight
// transfers, at most a few per core), so the shift is cheaper than any
// order-breaking trick plus re-sort.
func (n *Net) removeActive(f *Flow) {
	i := f.idx
	copy(n.active[i:], n.active[i+1:])
	n.active = n.active[:len(n.active)-1]
	for ; i < len(n.active); i++ {
		n.active[i].idx = i
	}
}
