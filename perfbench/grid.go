package main

import (
	"context"
	"fmt"
	"hash/fnv"
	"io"
	"time"

	"numadag/internal/apps"
	"numadag/internal/core"
	"numadag/internal/machine"
	"numadag/internal/policy"
	"numadag/internal/rt"
	"numadag/internal/sim"
	"numadag/internal/workload"
)

// grid is a grid workload: the Experiment its command declares and the
// table sink the command prints.
type grid struct {
	exp   *core.Experiment
	table func() *core.TableSink
}

// figure1Grid is cmd/figure1's grid with one replicate: the eight paper
// apps under LAS, DFIFO, RGP+LAS and EP on bullion-s16, window 2048.
func figure1Grid(seed uint64, scale apps.Scale) grid {
	opt := core.DefaultFigure1Options()
	opt.Scale = scale
	opt.Seeds = 1
	opt.Runtime.Seed = seed
	return grid{
		exp:   core.Figure1Experiment(opt),
		table: func() *core.TableSink { return core.Figure1Table(opt) },
	}
}

// rgpWindowGrid is the top point of the window ablation: RGP+LAS alone at
// window 8192, where one window covers each paper-scale TDG whole.
func rgpWindowGrid(seed uint64, scale apps.Scale) grid {
	opts := rt.DefaultOptions()
	opts.WindowSize = 8192
	opts.Seed = seed
	mc := machine.BullionS16()
	return grid{
		exp: &core.Experiment{
			Name:     "rgp_window8192",
			Policies: []string{"RGP+LAS"},
			Scale:    scale,
			Machines: []machine.Config{mc},
			Runtime:  opts,
			Seeds:    3,
		},
		table: func() *core.TableSink {
			return core.NewTableSink(core.TableOptions{Title: "RGP+LAS at window 8192: mean makespan (ns)"})
		},
	}
}

// cellDigest fingerprints the simulated outcome of one cell.
func cellDigest(s rt.Result) uint64 {
	h := fnv.New64a()
	var buf [8]byte
	for _, v := range []int64{int64(s.Makespan), s.LocalBytes + s.RemoteBytes, s.CutBytes} {
		for i := range buf {
			buf[i] = byte(v >> (8 * i))
		}
		h.Write(buf[:])
	}
	return h.Sum64()
}

// gridRun is one untraced Experiment.Run of a grid.
type gridRun struct {
	wall    time.Duration
	cpu     float64  // process CPU seconds
	digests []uint64 // per cell, canonical order
	table   *core.TableSink
}

// runGrid runs the grid through core.Experiment.Run, the path cmd/figure1
// and cmd/sweep take, with the table and a JSONL sink attached as the
// commands attach them. workers 0 means GOMAXPROCS.
func runGrid(g grid, workers int) (gridRun, error) {
	e := *g.exp
	e.Workers = workers
	run := gridRun{table: g.table()}
	collect := core.SinkFunc(func(cr core.CellResult) error {
		run.digests = append(run.digests, cellDigest(cr.Stats))
		return nil
	})
	start, cpu0 := time.Now(), cpuSeconds()
	err := e.Run(context.Background(), run.table, core.NewJSONLSink(io.Discard), collect)
	run.wall, run.cpu = time.Since(start), cpuSeconds()-cpu0
	return run, err
}

// buildSnapshots resolves each distinct workload of the grid and builds and
// snapshots its task graph once: the work an Experiment does before the
// first cell of each workload simulates.
func buildSnapshots(e *core.Experiment, cells []core.Cell, rec *recorder) (map[string]*rt.Snapshot, error) {
	mc := e.Machines[0]
	snaps := make(map[string]*rt.Snapshot)
	for _, cell := range cells {
		if snaps[cell.App] != nil {
			continue
		}
		i := rec.begin("workload.build", -1)
		w, err := workload.New(cell.App, e.Scale)
		if err != nil {
			return nil, err
		}
		proto, err := w.Instantiate(mc)
		if err != nil {
			return nil, fmt.Errorf("build %s: %w", cell.App, err)
		}
		rec.end(i)
		i = rec.begin("rt.snap", -1)
		snap, err := rt.Snap(proto)
		if err != nil {
			return nil, err
		}
		proto.Release()
		rec.end(i)
		snaps[cell.App] = snap
	}
	return snaps, nil
}

// gridSetup returns the CPU seconds of one set-up of the grid.
func gridSetup(g grid) (float64, error) {
	cells, err := g.exp.Cells()
	if err != nil {
		return 0, err
	}
	cpu0 := cpuSeconds()
	_, err = buildSnapshots(g.exp, cells, nil)
	return cpuSeconds() - cpu0, err
}

// traceGrid runs the grid sequentially from the benchmark's own loop,
// calling each layer's public function in the order core.Experiment does
// and timing every call: workload build, snapshot, install, Runtime.Run
// (with the policy behind the timing wrapper), audit and the sinks. It
// returns each cell's statistics in canonical order.
func traceGrid(g grid) (*tracedPass, []rt.Result, error) {
	e := g.exp
	if len(e.Machines) != 1 {
		return nil, nil, fmt.Errorf("perfbench: traced grids take one machine, got %d", len(e.Machines))
	}
	mc := e.Machines[0]
	cells, err := e.Cells()
	if err != nil {
		return nil, nil, err
	}
	rec := newRecorder()
	p := &tracedPass{rec: rec, c: newLayerCounts(rec)}
	gc0 := readGC()
	start := time.Now()
	snaps, err := buildSnapshots(e, cells, rec)
	if err != nil {
		return nil, nil, err
	}
	m := machine.New(mc, sim.NewEngine())
	table, jsonl := g.table(), core.NewJSONLSink(io.Discard)
	results := make([]rt.Result, 0, len(cells))
	for _, cell := range cells {
		opts := e.Runtime
		opts.Seed = cell.Seed
		i := rec.begin("rt.install", cell.Index)
		inner, err := policy.New(cell.Policy)
		if err != nil {
			return nil, nil, err
		}
		pol, err := wrapPolicy(inner, p.c)
		if err != nil {
			return nil, nil, err
		}
		r := rt.NewRuntime(m, pol, opts)
		snaps[cell.App].Install(r)
		rec.end(i)

		i = rec.begin("rt.run", cell.Index)
		stats := r.Run()
		rec.end(i)
		p.steps += int64(m.Engine().Steps())

		i = rec.begin("rt.audit", cell.Index)
		err = r.AuditSchedule()
		rec.end(i)
		if err != nil {
			return nil, nil, fmt.Errorf("%s/%s: %w", cell.App, cell.Policy, err)
		}
		r.Release()
		m.Reset()

		i = rec.begin("core.sink", cell.Index)
		cr := core.CellResult{
			Cell:   cell,
			Config: core.Config{App: cell.App, Scale: e.Scale, Policy: cell.Policy, Machine: mc, Runtime: opts},
			Stats:  stats,
		}
		if err := table.Emit(cr); err != nil {
			return nil, nil, err
		}
		if err := jsonl.Emit(cr); err != nil {
			return nil, nil, err
		}
		rec.end(i)

		results = append(results, stats)
		p.cells++
		p.tasks += int64(stats.TasksRun)
		p.steals += int64(stats.Steals)
		p.deferred += int64(stats.Deferred)
	}
	i := rec.begin("core.sink", -1)
	if err := table.Close(); err != nil {
		return nil, nil, err
	}
	if err := jsonl.Close(); err != nil {
		return nil, nil, err
	}
	rec.end(i)
	p.wall = time.Since(start)
	p.gc = readGC().sub(gc0)
	return p, results, nil
}
