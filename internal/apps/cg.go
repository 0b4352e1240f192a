package apps

import (
	"numadag/internal/memory"
	"numadag/internal/rt"
)

// CGParams sizes the conjugate gradient benchmark.
type CGParams struct {
	// Blocks is the number of row blocks of the banded system.
	Blocks int
	// ABlockBytes is the size of one matrix row block (the heavy stream).
	ABlockBytes int64
	// VecBlockBytes is the size of one vector block.
	VecBlockBytes int64
	// Iters is the number of CG iterations.
	Iters int
}

// CGPreset returns per-scale default sizes.
func CGPreset(s Scale) CGParams {
	switch s {
	case Tiny:
		return CGParams{Blocks: 4, ABlockBytes: 128 * kib, VecBlockBytes: 32 * kib, Iters: 2}
	case Small:
		return CGParams{Blocks: 16, ABlockBytes: 512 * kib, VecBlockBytes: 64 * kib, Iters: 4}
	default:
		return CGParams{Blocks: 64, ABlockBytes: 1 * mib, VecBlockBytes: 128 * kib, Iters: 10}
	}
}

// NewCG builds the conjugate gradient benchmark on a block-tridiagonal
// (banded) SPD system: each iteration performs a blocked SpMV (each row
// block reads its matrix block and three neighboring p blocks), two global
// dot-product reductions through small scalar regions, and the blocked
// vector updates. The reductions make CG the most synchronization-heavy app
// in the suite. Expert distribution is block rows.
func NewCG(s Scale) App {
	p := CGPreset(s)
	return App{Name: "cg", Build: func(r *rt.Runtime) { buildCG(r, p) }}
}

func buildCG(r *rt.Runtime, p CGParams) {
	sockets := r.Machine().Sockets()
	allocVec := func(name string) []*memory.Region {
		v := make([]*memory.Region, p.Blocks)
		for i := range v {
			v[i] = r.Mem().Alloc(index(name, i), p.VecBlockBytes, memory.Deferred, 0)
		}
		return v
	}
	A := make([]*memory.Region, p.Blocks)
	for i := range A {
		A[i] = r.Mem().Alloc(index("A", i), p.ABlockBytes, memory.Deferred, 0)
	}
	x, rr, pp, q := allocVec("x"), allocVec("r"), allocVec("p"), allocVec("q")
	pd1, pd2 := allocVec("pd1"), allocVec("pd2")
	// Scalars travel through small regions; every block task of the next
	// phase reads them (the broadcast after the reduction).
	alpha := r.Mem().Alloc("alpha", 64, memory.Deferred, 0)
	beta := r.Mem().Alloc("beta", 64, memory.Deferred, 0)

	vecFlops := float64(p.VecBlockBytes / 8)
	spmvFlops := 2 * float64(p.ABlockBytes/8) // 2 flops per matrix entry

	for i := 0; i < p.Blocks; i++ {
		owner := blockRowOwner(i, p.Blocks, sockets)
		r.Submit(rt.TaskSpec{Label: call("init_A", i),
			Flops:    float64(p.ABlockBytes / 8),
			Accesses: []rt.Access{{Region: A[i], Mode: rt.Out}}, EPSocket: owner})
		for _, v := range []struct {
			n string
			r *memory.Region
		}{{"init_x", x[i]}, {"init_r", rr[i]}, {"init_p", pp[i]}} {
			r.Submit(rt.TaskSpec{Label: call(v.n, i),
				Flops:    vecFlops,
				Accesses: []rt.Access{{Region: v.r, Mode: rt.Out}}, EPSocket: owner})
		}
	}
	for it := 0; it < p.Iters; it++ {
		// q = A p (banded: each block reads p[i-1], p[i], p[i+1]).
		for i := 0; i < p.Blocks; i++ {
			acc := []rt.Access{
				{Region: q[i], Mode: rt.Out},
				{Region: A[i], Mode: rt.In},
				{Region: pp[i], Mode: rt.In},
			}
			if i > 0 {
				acc = append(acc, rt.Access{Region: pp[i-1], Mode: rt.In})
			}
			if i+1 < p.Blocks {
				acc = append(acc, rt.Access{Region: pp[i+1], Mode: rt.In})
			}
			r.Submit(rt.TaskSpec{Label: call("spmv", it, i),
				Flops: spmvFlops, Accesses: acc,
				EPSocket: blockRowOwner(i, p.Blocks, sockets)})
		}
		// alpha = rr / (p . q): block partials then one reduction.
		for i := 0; i < p.Blocks; i++ {
			r.Submit(rt.TaskSpec{Label: call("dot1", it, i),
				Flops: 2 * vecFlops,
				Accesses: []rt.Access{
					{Region: pd1[i], Mode: rt.Out},
					{Region: pp[i], Mode: rt.In},
					{Region: q[i], Mode: rt.In},
				},
				EPSocket: blockRowOwner(i, p.Blocks, sockets)})
		}
		accRed := []rt.Access{{Region: alpha, Mode: rt.Out}}
		for i := 0; i < p.Blocks; i++ {
			accRed = append(accRed, rt.Access{Region: pd1[i], Mode: rt.In})
		}
		r.Submit(rt.TaskSpec{Label: call("reduce1", it),
			Flops: float64(p.Blocks), Accesses: accRed, EPSocket: 0})
		// x += alpha p ; r -= alpha q.
		for i := 0; i < p.Blocks; i++ {
			owner := blockRowOwner(i, p.Blocks, sockets)
			r.Submit(rt.TaskSpec{Label: call("axpy_x", it, i),
				Flops: 2 * vecFlops,
				Accesses: []rt.Access{
					{Region: x[i], Mode: rt.InOut},
					{Region: pp[i], Mode: rt.In},
					{Region: alpha, Mode: rt.In},
				}, EPSocket: owner})
			r.Submit(rt.TaskSpec{Label: call("axpy_r", it, i),
				Flops: 2 * vecFlops,
				Accesses: []rt.Access{
					{Region: rr[i], Mode: rt.InOut},
					{Region: q[i], Mode: rt.In},
					{Region: alpha, Mode: rt.In},
				}, EPSocket: owner})
		}
		// beta = (r'.r') / (r.r): partials + reduction.
		for i := 0; i < p.Blocks; i++ {
			r.Submit(rt.TaskSpec{Label: call("dot2", it, i),
				Flops: 2 * vecFlops,
				Accesses: []rt.Access{
					{Region: pd2[i], Mode: rt.Out},
					{Region: rr[i], Mode: rt.In},
				},
				EPSocket: blockRowOwner(i, p.Blocks, sockets)})
		}
		accRed2 := []rt.Access{{Region: beta, Mode: rt.Out}}
		for i := 0; i < p.Blocks; i++ {
			accRed2 = append(accRed2, rt.Access{Region: pd2[i], Mode: rt.In})
		}
		r.Submit(rt.TaskSpec{Label: call("reduce2", it),
			Flops: float64(p.Blocks), Accesses: accRed2, EPSocket: 0})
		// p = r + beta p.
		for i := 0; i < p.Blocks; i++ {
			r.Submit(rt.TaskSpec{Label: call("update_p", it, i),
				Flops: 2 * vecFlops,
				Accesses: []rt.Access{
					{Region: pp[i], Mode: rt.InOut},
					{Region: rr[i], Mode: rt.In},
					{Region: beta, Mode: rt.In},
				},
				EPSocket: blockRowOwner(i, p.Blocks, sockets)})
		}
	}
}
