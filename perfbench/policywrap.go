package main

import (
	"fmt"
	"time"

	"numadag/internal/machine"
	"numadag/internal/rt"
	"numadag/internal/sim"
)

// layerCounts accumulates the per-call work a traced pass observes through
// the policy wrapper and the machines' flow hooks.
type layerCounts struct {
	rec       *recorder
	pickCalls int64
	pickNs    int64
	flows     int64
	windows   int64 // windows the partitioner was handed
	partTasks int64 // tasks in those windows
	hooked    map[*machine.Machine]bool
}

func newLayerCounts(rec *recorder) *layerCounts {
	return &layerCounts{rec: rec, hooked: make(map[*machine.Machine]bool)}
}

// hookFlows counts flow starts on m. Hooks survive Machine.Reset, so each
// machine is hooked once.
func (c *layerCounts) hookFlows(m *machine.Machine) {
	if c.hooked[m] {
		return
	}
	c.hooked[m] = true
	m.Net().SetFlowHooks(func(*sim.Flow) { c.flows++ }, nil)
}

// timedPolicy delegates to a policy and times PickSocket. It also hooks the
// flow counter onto the machine of the first task it places: no flow can
// start on a machine before a task there has been placed.
type timedPolicy struct {
	inner  rt.Policy
	c      *layerCounts
	hooked bool
}

func (p *timedPolicy) Name() string { return p.inner.Name() }

func (p *timedPolicy) PickSocket(r *rt.Runtime, t *rt.Task) int {
	if !p.hooked {
		p.hooked = true
		p.c.hookFlows(r.Machine())
	}
	start := time.Now()
	s := p.inner.PickSocket(r, t)
	d := time.Since(start)
	p.c.pickCalls++
	p.c.pickNs += int64(d)
	p.c.rec.addInner(d)
	return s
}

// The runtime discovers rt.Preparer and rt.StealVeto by type assertion, so
// the wrapper must implement exactly the optional interfaces the wrapped
// policy does: one wrapper type per combination.
type (
	timedPreparer     struct{ *timedPolicy }
	timedVeto         struct{ *timedPolicy }
	timedPreparerVeto struct{ timedPreparer }
)

func (p timedPreparer) Prepare(r *rt.Runtime) {
	i := p.c.rec.begin("partition.prepare", -1)
	p.inner.(rt.Preparer).Prepare(r)
	p.c.rec.end(i)
	if w, ok := p.inner.(interface{ WindowsPartitioned() int }); ok {
		n := w.WindowsPartitioned()
		p.c.windows += int64(n)
		for k := 0; k < n && k < r.Windows(); k++ {
			p.c.partTasks += int64(len(r.WindowTasks(k)))
		}
	}
}

func (p timedVeto) VetoSteal() bool { return p.inner.(rt.StealVeto).VetoSteal() }

func (p timedPreparerVeto) VetoSteal() bool { return p.inner.(rt.StealVeto).VetoSteal() }

// wrapPolicy returns inner behind the timing wrapper. Policies with
// optional hooks the wrapper does not forward are refused rather than
// silently changed.
func wrapPolicy(inner rt.Policy, c *layerCounts) (rt.Policy, error) {
	if _, ok := inner.(rt.TaskDoneHook); ok {
		return nil, fmt.Errorf("perfbench: policy %s implements rt.TaskDoneHook, which the timing wrapper does not forward", inner.Name())
	}
	base := &timedPolicy{inner: inner, c: c}
	_, prep := inner.(rt.Preparer)
	_, veto := inner.(rt.StealVeto)
	switch {
	case prep && veto:
		return timedPreparerVeto{timedPreparer{base}}, nil
	case prep:
		return timedPreparer{base}, nil
	case veto:
		return timedVeto{base}, nil
	}
	return base, nil
}
