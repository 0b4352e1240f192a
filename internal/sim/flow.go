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
	flows    int     // active flows crossing this resource (bookkeeping)

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
func (r *Resource) ActiveFlows() int { return r.flows }

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
	mask       uint64 // bitset over path resource IDs; valid when !wide
	wide       bool   // some path resource has id >= 64: fall back to scans
	lastUpdate Time
	done       func()
	net        *Net
	finished   bool

	// Reallocation / completion-tracking state, owned by Net.
	frozen   bool   // scratch flag for the water-filling loop
	idx      int    // position in Net.active
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

// crosses reports whether the flow's path includes r — a bitset test when
// every path resource has an ID below 64 (always true for the machines the
// paper evaluates: 2 resources per socket), a linear scan otherwise.
func (f *Flow) crosses(r *Resource) bool {
	if !f.wide {
		if r.id >= 64 {
			return false
		}
		return f.mask&(1<<uint(r.id)) != 0
	}
	for _, rr := range f.path {
		if rr == r {
			return true
		}
	}
	return false
}

// Net is a fluid-flow network bound to an Engine. All methods must be called
// from the engine goroutine (the simulator is single-threaded by design).
//
// # Incremental reallocation
//
// Starting or finishing a flow invalidates rates, but the recompute is
// deferred: churn marks the network dirty and parks the completion event on
// a far-future placeholder, and the engine runs the Net's flush hook once,
// just before the clock leaves the current instant. That batches
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
// The fill itself stays a whole-network water-filling pass, restructured so
// its cost tracks the flows that actually cross contended resources
// (per-resource crossing lists and shrinking worklists replace the historic
// all-resources x all-flows scans) while executing bit-for-bit the float
// operations of the naive ladder — the determinism goldens pin simulated
// physics down to the nanosecond, so the optimised fill must be exactly
// equivalent, and the equivalence suite and FuzzReallocate hold it to the
// test-only reference implementation.
//
// A further restriction — water-filling only the connected component of
// resources the changed flow crosses, leaving other components' rates
// untouched — is deliberately NOT done, although the path bitsets make it
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

	// Scratch buffers reused by the water-filling passes. residual,
	// unfrozen and sums have len == len(resources). csrStart/csrFlows hold
	// the per-resource crossing lists in CSR layout; liveRes and liveFlows
	// are the shrinking round worklists.
	residual  []float64
	unfrozen  []int
	sums      []float64
	csrStart  []int32 // len == len(resources)+1; bucket r is [csrStart[r], csrStart[r+1])
	csrCur    []int32 // fill cursors, len == len(resources)
	csrFlows  []*Flow // flattened buckets, ascending flow id within each
	liveRes   []int32 // resource ids with unfrozen flows, ascending
	liveFlows []*Flow // unfrozen flows, ascending id

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

	// Single earliest-completion event; completeFn is allocated once so
	// rescheduling never creates a new closure.
	pending    Timer
	completeFn func()
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

// NewNet creates an empty flow network driven by eng and registers its
// end-of-instant flush with the engine.
func NewNet(eng *Engine) *Net {
	n := &Net{eng: eng, batch: true}
	n.completeFn = n.onComplete
	n.fill = n.waterfill
	eng.AddFlusher(n.flush)
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
	n.residual = append(n.residual, 0)
	n.unfrozen = append(n.unfrozen, 0)
	n.sums = append(n.sums, 0)
	n.csrCur = append(n.csrCur, 0)
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
	for _, r := range f.path {
		if r.id >= 64 {
			f.wide = true
			break
		}
		f.mask |= 1 << uint(r.id)
	}
	n.progressAll()
	f.idx = len(n.active)
	n.active = append(n.active, f) // ids are monotonic: append keeps order
	for _, r := range f.path {
		r.flows++
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
// time using its rate since the last update.
func (n *Net) progressAll() {
	now := n.eng.Now()
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

// freezeFlow fixes a flow's rate and removes its demand from the residual
// capacities. Part of the water-filling loop in reallocate.
func (n *Net) freezeFlow(f *Flow, rate float64) {
	f.rate = rate
	f.frozen = true
	for _, rr := range f.path {
		n.residual[rr.id] -= rate
		if n.residual[rr.id] < 0 {
			n.residual[rr.id] = 0
		}
		n.unfrozen[rr.id]--
	}
}

// sentinelTime parks the completion-event placeholder beyond any reachable
// deadline; the end-of-instant flush always reschedules or stops it before
// the clock could get there.
const sentinelTime = Time(math.MaxInt64)

// noteChurn records that a flow just started or finished: rates are stale
// and must be recomputed before the current instant ends. The armed
// completion event is replaced by a far-future placeholder, so it can never
// fire on stale deadlines — and, crucially, the placeholder claims the
// completion event's scheduling seq here, at the churn point, exactly where
// the historical eager recompute re-armed its timer. The flush only moves
// the placeholder to the real deadline (Engine.Reschedule keeps the seq),
// so a tie between the completion and an event scheduled later in the same
// instant resolves exactly as it did under one-recompute-per-churn.
func (n *Net) noteChurn() {
	n.pending.Stop()
	n.pending = n.eng.At(sentinelTime, n.completeFn)
	if !n.dirty {
		n.dirty = true
		n.eng.RequestFlush()
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
		n.flushing = false
		return
	}
	n.fill(now)
	// Assign fresh completion deadlines in flow-ID order — mirroring the
	// (time, seq) order per-flow timers would have been scheduled in — and
	// arm the single completion event for the earliest one. The pass covers
	// every active flow, not only those whose rate changed: the historical
	// ladder recomputed every deadline from the current instant, and the
	// ceil-rounding of remaining/rate depends on that instant, so skipping
	// a flow here could drift its deadline a nanosecond from the reference.
	for _, f := range n.active {
		dt, ok := completionDelay(f.remaining, f.rate)
		n.dcounter++
		f.dseq = n.dcounter
		f.starved = !ok
		if ok {
			f.deadline = now + dt
		}
	}
	// Move the placeholder claimed by the last churn to the real deadline,
	// keeping its seq (see noteChurn).
	best := n.earliestDue()
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
// flow whose own cap is below that share — freeze the affected flows,
// subtract their consumption from every resource they cross, repeat.
//
// The pass is bit-for-bit equivalent to the naive ladder (kept as the
// test-only referenceWaterfill): identical float operations in identical
// order. What changed is the scan structure, which the profile said was the
// hot spot, not the arithmetic:
//
//   - Per-resource crossing lists in CSR layout (rebuilt per flush in two
//     passes over the active flows, so every bucket is in ascending flow-id
//     order) replace the all-flows scan + crosses() test when a bottleneck
//     resource freezes its flows.
//   - A shrinking worklist of unfrozen flows (stable-filtered, so ascending
//     id order is preserved) replaces the all-flows scan of the cap-freeze
//     round.
//   - A shrinking worklist of resources with unfrozen flows replaces the
//     all-resources scans of the share minimum and the freeze pass.
//
// Everything runs on per-Net scratch buffers: no allocation, no map
// iteration, no sorting. Flows are visited in ascending ID order and
// resources in ascending id order, which both makes runs bit-reproducible
// and matches the order completion timers were historically scheduled in.
func (n *Net) waterfill(now Time) {
	residual, unfrozen := n.residual, n.unfrozen
	if len(n.csrStart) != len(n.resources)+1 {
		n.csrStart = make([]int32, len(n.resources)+1)
	}
	start, cur := n.csrStart, n.csrCur
	for i, r := range n.resources {
		residual[i] = r.capacity
		unfrozen[i] = 0
		start[i+1] = 0
	}
	for _, f := range n.active {
		for _, r := range f.path {
			start[r.id+1]++
		}
	}
	for i := 1; i < len(start); i++ {
		start[i] += start[i-1]
	}
	total := int(start[len(start)-1])
	if cap(n.csrFlows) < total {
		n.csrFlows = make([]*Flow, total)
	}
	csr := n.csrFlows[:total]
	copy(cur, start[:len(cur)])
	lf := n.liveFlows[:0]
	for _, f := range n.active {
		f.frozen = false
		lf = append(lf, f)
		for _, r := range f.path {
			unfrozen[r.id]++
			csr[cur[r.id]] = f
			cur[r.id]++
		}
	}
	lr := n.liveRes[:0]
	for id := range n.resources {
		if unfrozen[id] > 0 {
			lr = append(lr, int32(id))
		}
	}
	left := len(n.active)
	for left > 0 {
		// Bottleneck-resource share, over resources that still carry
		// unfrozen flows (compacted in place; a resource whose flows all
		// froze can never regain one within this fill).
		share := math.Inf(1)
		k := 0
		for _, id := range lr {
			if unfrozen[id] == 0 {
				continue
			}
			lr[k] = id
			k++
			if s := residual[id] / float64(unfrozen[id]); s < share {
				share = s
			}
		}
		lr = lr[:k]
		// A flow whose cap is at or below the share binds first. The
		// worklist is compacted in the same stable pass, preserving the
		// ascending-id visit order of the naive ladder.
		capBound := false
		k = 0
		for _, f := range lf {
			if f.frozen {
				continue
			}
			if f.maxRate <= share {
				n.freezeFlow(f, f.maxRate)
				left--
				capBound = true
				continue
			}
			lf[k] = f
			k++
		}
		lf = lf[:k]
		if capBound {
			continue // resource shares changed; recompute
		}
		if math.IsInf(share, 1) {
			// Remaining flows cross no contended resource; cannot happen
			// because every flow has a non-empty path, but guard anyway.
			for _, f := range lf {
				if !f.frozen {
					f.rate = f.maxRate
					f.frozen = true
					left--
				}
			}
			break
		}
		// Freeze every unfrozen flow crossing a bottleneck resource,
		// walking the resource's own crossing list instead of scanning all
		// active flows.
		progressed := false
		for _, id := range lr {
			if unfrozen[id] == 0 {
				continue
			}
			if residual[id]/float64(unfrozen[id]) > share*(1+1e-12) {
				continue
			}
			for _, f := range csr[start[id]:start[id+1]] {
				if f.frozen {
					continue
				}
				n.freezeFlow(f, share)
				left--
				progressed = true
			}
		}
		if !progressed {
			panic("sim: max-min water-filling made no progress")
		}
	}
	n.liveFlows, n.liveRes = lf[:0], lr[:0] // keep growth; drop stale refs logically
	// Settle per-resource rate integrals with the fresh allocation.
	sums := n.sums
	for i := range sums {
		sums[i] = 0
	}
	for _, f := range n.active {
		for _, res := range f.path {
			sums[res.id] += f.rate
		}
	}
	for _, res := range n.resources {
		res.settle(now, sums[res.id])
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
// design. Starved flows have no deadline and are skipped. Both armCompletion
// and onComplete must select by this exact rule, or the armed event would
// belong to a different flow than the one processed when it fires.
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
	due := n.earliestDue()
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
		r.flows--
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
		r.flows = 0
		r.carried = 0
		r.rate = 0
		r.lastUpdate = 0
	}
	n.nextFlow = 0
	n.dirty = false
	n.flushing = false
	n.pending = Timer{}
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
