package sim

import (
	"fmt"
	"math"
	"testing"

	"numadag/internal/xrand"
)

// Full-vs-incremental reallocation equivalence harness.
//
// A production Net (deferred, batched, incremental water-filling) and a
// reference Net (eager per-event recompute through the naive seed ladder,
// see realloc_reference_test.go) are driven through an identical flow-churn
// script on two engines, stopped at every churn instant, and compared
// bit-for-bit: simulated clock, executed steps, queued events, every
// completion time, and the rate / remaining-bytes / deadline / starvation
// state of every in-flight flow. Nothing is allowed to drift by even an
// ulp — the determinism goldens pin physics to the nanosecond, and a
// one-ulp rate difference becomes a one-nanosecond ceil difference becomes
// a different schedule. Every compared state is also checked against the
// max-min definition (checkMaxMin in maxmin_test.go), so an error the two
// fills shared would still fail.

// churnOp is one scripted StartFlowCapped call.
type churnOp struct {
	at   Time
	vol  float64
	path []int // resource indices
	maxR float64
}

// scriptRun drives one Net through a churn script.
type scriptRun struct {
	eng    *Engine
	net    *Net
	flows  []*Flow
	doneAt []Time  // completion instant per op, -1 while in flight
	order  []int32 // callback interleaving: op i start = i<<1, done = i<<1|1
}

func startScript(mk func(*Engine) *Net, caps []float64, ops []churnOp) *scriptRun {
	eng := NewEngine()
	net := mk(eng)
	rs := make([]*Resource, len(caps))
	for i, c := range caps {
		rs[i] = net.NewResource(fmt.Sprintf("r%d", i), c)
	}
	sr := &scriptRun{eng: eng, net: net}
	sr.flows = make([]*Flow, len(ops))
	sr.doneAt = make([]Time, len(ops))
	for i := range sr.doneAt {
		sr.doneAt[i] = -1
	}
	for i, op := range ops {
		i, op := i, op
		path := make([]*Resource, len(op.path))
		for j, id := range op.path {
			path[j] = rs[id]
		}
		eng.At(op.at, func() {
			sr.order = append(sr.order, int32(i)<<1)
			sr.flows[i] = net.StartFlowCapped(op.vol, path, op.maxR, func() {
				sr.doneAt[i] = eng.Now()
				sr.order = append(sr.order, int32(i)<<1|1)
			})
		})
	}
	return sr
}

// compareState asserts bit-exact equality of the two runs' observable and
// completion-relevant state. Called between instants, where both nets are
// flushed.
func compareState(t *testing.T, tag string, a, b *scriptRun) {
	t.Helper()
	if a.eng.Now() != b.eng.Now() {
		t.Fatalf("%s: clock diverged: production %v, reference %v", tag, a.eng.Now(), b.eng.Now())
	}
	if a.eng.Steps() != b.eng.Steps() {
		t.Fatalf("%s: executed steps diverged: production %d, reference %d", tag, a.eng.Steps(), b.eng.Steps())
	}
	if a.eng.Pending() != b.eng.Pending() {
		t.Fatalf("%s: pending events diverged: production %d, reference %d", tag, a.eng.Pending(), b.eng.Pending())
	}
	if math.Float64bits(a.net.TotalBytes) != math.Float64bits(b.net.TotalBytes) {
		t.Fatalf("%s: TotalBytes diverged: production %v, reference %v", tag, a.net.TotalBytes, b.net.TotalBytes)
	}
	if len(a.order) != len(b.order) {
		t.Fatalf("%s: callback count diverged: production %d, reference %d", tag, len(a.order), len(b.order))
	}
	for i := range a.order {
		if a.order[i] != b.order[i] {
			t.Fatalf("%s: callback interleaving diverged at %d: production op %d/%d, reference op %d/%d",
				tag, i, a.order[i]>>1, a.order[i]&1, b.order[i]>>1, b.order[i]&1)
		}
	}
	for i := range a.doneAt {
		if a.doneAt[i] != b.doneAt[i] {
			t.Fatalf("%s: flow %d completion diverged: production %v, reference %v", tag, i, a.doneAt[i], b.doneAt[i])
		}
		if a.doneAt[i] >= 0 || a.flows[i] == nil {
			continue // finished (handle may be recycled) or not yet started
		}
		fa, fb := a.flows[i], b.flows[i]
		if fa.finished != fb.finished {
			t.Fatalf("%s: flow %d finished flag diverged", tag, i)
		}
		if fa.finished {
			continue
		}
		if math.Float64bits(fa.rate) != math.Float64bits(fb.rate) {
			t.Fatalf("%s: flow %d rate diverged: production %x (%v), reference %x (%v)",
				tag, i, math.Float64bits(fa.rate), fa.rate, math.Float64bits(fb.rate), fb.rate)
		}
		if math.Float64bits(fa.remaining) != math.Float64bits(fb.remaining) {
			t.Fatalf("%s: flow %d remaining diverged: production %v, reference %v", tag, i, fa.remaining, fb.remaining)
		}
		if fa.starved != fb.starved {
			t.Fatalf("%s: flow %d starvation diverged: production %v, reference %v", tag, i, fa.starved, fb.starved)
		}
		if !fa.starved && fa.deadline != fb.deadline {
			t.Fatalf("%s: flow %d deadline diverged: production %v, reference %v", tag, i, fa.deadline, fb.deadline)
		}
	}
}

// runEquivalence executes the script on a production and a reference net in
// lockstep, comparing at every churn instant and after the drain. It
// returns how many completion events fired early on the production net
// (see checkCompletions).
func runEquivalence(t *testing.T, caps []float64, ops []churnOp) (early int) {
	t.Helper()
	prod := startScript(NewNet, caps, ops)
	ref := startScript(newReferenceNet, caps, ops)
	prodEarly := checkCompletions(t, prod.net)
	checkCompletions(t, ref.net)
	var last Time = -1
	for _, op := range ops {
		if op.at == last {
			continue // one checkpoint per instant
		}
		last = op.at
		prod.eng.RunUntil(op.at)
		ref.eng.RunUntil(op.at)
		tag := fmt.Sprintf("t=%v", op.at)
		compareState(t, tag, prod, ref)
		checkMaxMin(t, tag+" production", prod.net)
		checkMaxMin(t, tag+" reference", ref.net)
	}
	prod.eng.Run()
	ref.eng.Run()
	compareState(t, "drained", prod, ref)
	checkMaxMin(t, "drained production", prod.net)
	checkMaxMin(t, "drained reference", ref.net)
	if prod.eng.Pending() != 0 || prod.net.ActiveFlows() != 0 {
		t.Fatalf("production net did not drain: %d events, %d flows", prod.eng.Pending(), prod.net.ActiveFlows())
	}
	for i, d := range prod.doneAt {
		if d < 0 {
			t.Fatalf("flow %d never completed", i)
		}
	}
	return *prodEarly
}

// checkCompletions wraps n's completion event (before any flow arms it)
// with two checks at every firing. The flow the Net cached when it armed the
// event must be the one earliestDue picks by scanning every active flow. And
// if the Net was already progressed at this instant, every active flow must
// have been progressed to it, or progressAll's once-per-instant shortcut
// would skip elapsed time. The returned counter counts the early firings:
// ceil rounding left the due flow bytes to move, so onComplete pushed its
// deadline out and re-armed instead of finishing it.
func checkCompletions(t *testing.T, n *Net) *int {
	early := new(int)
	n.completeFn = func() {
		if want := n.earliestDue(); n.due != want {
			t.Errorf("t=%v: cached due flow %p, earliestDue %p", n.eng.Now(), n.due, want)
		}
		if now := n.eng.Now(); n.progressedAt == now {
			for _, f := range n.active {
				if f.lastUpdate != now {
					t.Errorf("t=%v: flow %d progressed to %v after progressAll ran at this instant", now, f.id, f.lastUpdate)
				}
			}
		}
		due := n.due
		n.onComplete()
		if due != nil && !due.finished {
			*early++
		}
	}
	return early
}

// Machine-model constants: the bullion's per-socket controller and port
// bandwidths and the three core-concurrency caps (local, 1-hop, 2-hop).
var (
	machineCaps = func() []float64 {
		caps := make([]float64, 16)
		for s := 0; s < 8; s++ {
			caps[2*s] = 30.0   // memory controller
			caps[2*s+1] = 12.0 // interconnect port
		}
		return caps
	}()
	coreBW = []float64{640.0 / 90, 640.0 / 125, 640.0 / 160}
)

// buildChurnCase generates a deterministic churn script. style selects the
// network/traffic shape; burst controls how many flows share one start
// instant (the same-instant batching stress).
func buildChurnCase(seed, style, nOpsRaw, burstRaw uint64) ([]float64, []churnOp) {
	rng := xrand.New(seed ^ 0x9e3779b97f4a7c15)
	nOps := int(nOpsRaw%96) + 4
	burst := int(burstRaw%8) + 1
	var caps []float64
	var ops []churnOp
	now := Time(0)
	pick := func(ids ...int) []int { return ids }
	switch style % 6 {
	case 0:
		// Machine-shaped: per-socket {mc, port} components, capped local and
		// remote transfers — the exact shape rt.fanOutTransfers produces.
		caps = machineCaps
		for len(ops) < nOps {
			now += Time(rng.Intn(2000)) // 0 keeps whole bursts at one instant
			for j := 0; j < burst && len(ops) < nOps; j++ {
				home := rng.Intn(8)
				op := churnOp{at: now, vol: float64(rng.Intn(1 << 20)), maxR: coreBW[rng.Intn(3)]}
				if rng.Intn(3) == 0 {
					op.path = pick(2*home, 2*home+1) // remote: mc + port
				} else {
					op.path = pick(2 * home) // local: mc only
				}
				ops = append(ops, op)
			}
		}
	case 1:
		// Single-link bottleneck: every flow crosses resource 0, most also a
		// private second resource; starvation-prone tiny capacity.
		caps = []float64{1.0 + rng.Float64()}
		for i := 0; i < 6; i++ {
			caps = append(caps, 4.0+8.0*rng.Float64())
		}
		for len(ops) < nOps {
			now += Time(rng.Intn(5000))
			for j := 0; j < burst && len(ops) < nOps; j++ {
				op := churnOp{at: now, vol: float64(1 + rng.Intn(1<<16)), maxR: math.Inf(1)}
				if rng.Intn(4) > 0 {
					op.maxR = 0.25 + 4*rng.Float64()
				}
				if r := rng.Intn(len(caps)); r > 0 {
					op.path = pick(0, r)
				} else {
					op.path = pick(0)
				}
				ops = append(ops, op)
			}
		}
	case 2:
		// Disjoint components with caps straddling each other's fair shares:
		// the float-ordering trap that makes per-component fills diverge from
		// the global ladder; the production fill must take the global rounds.
		caps = []float64{30, 12, 30, 12, 7, 3}
		straddle := []float64{640.0 / 90, 640.0 / 125, 4.0, 2.5, 1.0, 0.6}
		for len(ops) < nOps {
			now += Time(rng.Intn(1500))
			for j := 0; j < burst && len(ops) < nOps; j++ {
				comp := rng.Intn(3)
				op := churnOp{at: now, vol: float64(1 + rng.Intn(1<<18)), maxR: straddle[rng.Intn(len(straddle))]}
				if rng.Intn(2) == 0 {
					op.path = pick(2 * comp)
				} else {
					op.path = pick(2*comp, 2*comp+1)
				}
				ops = append(ops, op)
			}
		}
	case 3:
		// Random overlapping paths: components merge and split as flows come
		// and go; mixes capped, uncapped and zero-byte flows.
		nr := 3 + rng.Intn(10)
		for i := 0; i < nr; i++ {
			caps = append(caps, 0.5+31.5*rng.Float64())
		}
		for len(ops) < nOps {
			now += Time(rng.Intn(3000))
			for j := 0; j < burst && len(ops) < nOps; j++ {
				op := churnOp{at: now, vol: float64(rng.Intn(1 << 19)), maxR: math.Inf(1)}
				if rng.Intn(3) > 0 {
					op.maxR = 0.1 + 16*rng.Float64()
				}
				k := 1 + rng.Intn(3)
				seen := map[int]bool{}
				for len(op.path) < k {
					r := rng.Intn(nr)
					if !seen[r] {
						seen[r] = true
						op.path = append(op.path, r)
					}
				}
				ops = append(ops, op)
			}
		}
	case 5:
		// General paths: more than 64 resources, so ids reach past any
		// 64-bit path mask, and paths that list a resource twice (the flow
		// then counts twice against that resource's capacity). About half
		// the picks land on the ids >= 64 so flows there actually contend.
		nr := 65 + rng.Intn(40)
		for i := 0; i < nr; i++ {
			caps = append(caps, 0.5+31.5*rng.Float64())
		}
		for len(ops) < nOps {
			now += Time(rng.Intn(3000))
			for j := 0; j < burst && len(ops) < nOps; j++ {
				op := churnOp{at: now, vol: float64(1 + rng.Intn(1<<19)), maxR: math.Inf(1)}
				if rng.Intn(3) > 0 {
					op.maxR = 0.1 + 16*rng.Float64()
				}
				for k := 1 + rng.Intn(3); len(op.path) < k; {
					switch {
					case len(op.path) > 0 && rng.Intn(4) == 0:
						op.path = append(op.path, op.path[rng.Intn(len(op.path))])
					case rng.Intn(2) == 0:
						op.path = append(op.path, 64+rng.Intn(nr-64))
					default:
						op.path = append(op.path, rng.Intn(nr))
					}
				}
				ops = append(ops, op)
			}
		}
	default:
		// Completion-wave stress: equal volumes on shared resources, so many
		// flows finish at the same nanosecond and the finish side of batching
		// is exercised as hard as the start side.
		caps = []float64{16, 16, 8}
		for len(ops) < nOps {
			now += Time(rng.Intn(800))
			vol := float64(1024 * (1 + rng.Intn(64)))
			for j := 0; j < burst && len(ops) < nOps; j++ {
				op := churnOp{at: now, vol: vol, maxR: math.Inf(1)}
				op.path = pick(rng.Intn(3))
				ops = append(ops, op)
			}
		}
	}
	return caps, ops
}

// TestReallocateEquivalenceScripted pins hand-written corners: same-instant
// fan-out bursts, the staggered-arrival shape, cap-straddling disjoint
// components, and a zero-byte / empty-path mix.
func TestReallocateEquivalenceScripted(t *testing.T) {
	mc, port := 0, 1
	t.Run("fanout-burst", func(t *testing.T) {
		// One task's read phase: four transfers at one instant, two sockets.
		runEquivalence(t, machineCaps, []churnOp{
			{at: 0, vol: 1 << 20, path: []int{2 * 0}, maxR: coreBW[0]},
			{at: 0, vol: 3 << 18, path: []int{2 * 1, 2*1 + 1}, maxR: coreBW[1]},
			{at: 0, vol: 5 << 16, path: []int{2 * 1, 2*1 + 1}, maxR: coreBW[2]},
			{at: 0, vol: 9 << 14, path: []int{2 * 0}, maxR: coreBW[0]},
			{at: 977, vol: 1 << 19, path: []int{2 * 0}, maxR: coreBW[0]},
			{at: 977, vol: 1 << 19, path: []int{2 * 2}, maxR: coreBW[0]},
		})
	})
	t.Run("staggered", func(t *testing.T) {
		runEquivalence(t, []float64{8}, []churnOp{
			{at: 0, vol: 800, path: []int{mc}, maxR: math.Inf(1)},
			{at: 50, vol: 400, path: []int{mc}, maxR: math.Inf(1)},
			{at: 50, vol: 400, path: []int{mc}, maxR: 3},
		})
	})
	t.Run("cap-straddle-components", func(t *testing.T) {
		// Two disjoint components; component B's share (4.0) splits component
		// A's cap-freeze batch between rounds. The global ladder handles both
		// identically in production and reference by construction.
		runEquivalence(t, []float64{30, 12}, []churnOp{
			{at: 0, vol: 1 << 18, path: []int{mc}, maxR: 640.0 / 90},
			{at: 0, vol: 1 << 18, path: []int{mc}, maxR: 640.0 / 160},
			{at: 0, vol: 1 << 16, path: []int{port}, maxR: 4.0},
			{at: 0, vol: 1 << 16, path: []int{port}, maxR: 4.0},
			{at: 0, vol: 1 << 16, path: []int{port}, maxR: 4.0},
			{at: 311, vol: 1 << 15, path: []int{mc}, maxR: math.Inf(1)},
		})
	})
	t.Run("wide-repeated-path", func(t *testing.T) {
		// 70 resources with traffic on ids past 63, and paths listing
		// resources 66 and 69 twice: such a flow counts twice against the
		// repeated resource's capacity.
		caps := make([]float64, 70)
		for i := range caps {
			caps[i] = 4 + float64(i%7)
		}
		runEquivalence(t, caps, []churnOp{
			{at: 0, vol: 1 << 16, path: []int{66, 66}, maxR: math.Inf(1)},
			{at: 0, vol: 1 << 15, path: []int{3, 66}, maxR: 2.5},
			{at: 0, vol: 1 << 15, path: []int{69, 5, 69}, maxR: math.Inf(1)},
			{at: 400, vol: 1 << 14, path: []int{66, 69}, maxR: math.Inf(1)},
			{at: 400, vol: 1 << 14, path: []int{64}, maxR: 1.5},
		})
	})
	t.Run("zero-work", func(t *testing.T) {
		runEquivalence(t, []float64{4}, []churnOp{
			{at: 0, vol: 0, path: []int{mc}, maxR: math.Inf(1)},
			{at: 0, vol: 4096, path: []int{mc}, maxR: math.Inf(1)},
			{at: 0, vol: 100, path: nil, maxR: 1},
			{at: 1024, vol: 0, path: nil, maxR: math.Inf(1)},
		})
	})
}

// TestSameInstantTieOrderMatchesEager pins the tie rank of the deferred
// completion event: a user event scheduled *after* a StartFlow in the same
// instant, landing exactly on the flow's completion deadline, must still
// run after the flow's done callback — the order the eager per-churn
// recompute produced, preserved by noteChurn claiming the completion
// event's seq at churn time and the flush only rescheduling it
// (Engine.Reschedule keeps the seq).
func TestSameInstantTieOrderMatchesEager(t *testing.T) {
	run := func(mk func(*Engine) *Net) []string {
		var log []string
		e := NewEngine()
		n := mk(e)
		r := n.NewResource("r", 10)
		e.At(0, func() {
			// 1000 bytes at 10 B/ns: deadline exactly t=100.
			n.StartFlow(1000, []*Resource{r}, func() { log = append(log, "flow-done") })
			e.At(100, func() { log = append(log, "user-event") })
		})
		e.Run()
		return log
	}
	prod := run(NewNet)
	ref := run(newReferenceNet)
	if len(prod) != 2 || len(ref) != 2 {
		t.Fatalf("expected two callbacks each: production %v, reference %v", prod, ref)
	}
	for i := range prod {
		if prod[i] != ref[i] {
			t.Fatalf("same-instant tie order diverged: production %v, reference %v", prod, ref)
		}
	}
	if prod[0] != "flow-done" {
		t.Fatalf("completion lost its tie rank: order %v, want flow-done first", prod)
	}
}

// TestEarlyCompletionEquivalence drives 0.1-exabyte flows, whose
// completion deadlines lie beyond 2^53 ns: there the float quotient
// remaining/rate is already an integer, its ceil can fall short of the
// exact time, and the completion event fires with bytes left. onComplete
// then pushes that flow's deadline out and re-arms for whichever flow is
// now due — the only path where the cached due flow is picked by
// armCompletion rather than by the flush. The run must hit that path and
// still match the reference at every state.
func TestEarlyCompletionEquivalence(t *testing.T) {
	caps := []float64{0.409, 0.396, 0.422, 0.37}
	early := 0
	for spread := 1; spread <= 12; spread++ {
		var ops []churnOp
		for i := 0; i < 24; i++ {
			ops = append(ops, churnOp{
				at:   Time(i/3) * 1e15,
				vol:  1e17 + float64(i*spread)*97777,
				path: []int{i % 4, (i + 1 + i/4) % 4}[:1+i%2],
				maxR: math.Inf(1),
			})
		}
		early += runEquivalence(t, caps, ops)
	}
	if early == 0 {
		t.Fatal("no completion fired early: the re-arm path went untested")
	}
}

// TestReallocateEquivalenceRandom sweeps the generator across seeds and all
// styles; the fuzz target FuzzReallocate explores the same space
// coverage-guided.
func TestReallocateEquivalenceRandom(t *testing.T) {
	for style := uint64(0); style < 6; style++ {
		for seed := uint64(1); seed <= 6; seed++ {
			caps, ops := buildChurnCase(seed, style, 64+seed*13, seed)
			t.Run(fmt.Sprintf("style%d/seed%d", style, seed), func(t *testing.T) {
				runEquivalence(t, caps, ops)
			})
		}
	}
}
