// Custompolicy: implement a new scheduling policy against the public Policy
// interface, register it by name, and race it against the built-ins over a
// declarative experiment grid.
//
// The example policy, "ShortestQueue", places each ready task on the socket
// with the shortest queue, breaking ties toward the socket holding most of
// the task's data — a simple blend of load balancing and locality that sits
// between DFIFO and LAS. Once registered, "ShortestQueue" is a first-class
// policy name: any Experiment, Run or cluster config in the registering
// program can refer to it by spec, and every run of it goes through the
// audited run path.
//
//	go run ./examples/custompolicy
package main

import (
	"context"
	"fmt"
	"log"

	"numadag"
)

// shortestQueue is the custom policy. It is deterministic: ties break by
// residency bytes, then socket index.
type shortestQueue struct{}

// Name implements numadag.Policy.
func (shortestQueue) Name() string { return "ShortestQueue" }

// PickSocket implements numadag.Policy.
func (shortestQueue) PickSocket(r *numadag.Runtime, t *numadag.Task) int {
	res := r.ResidencyBytes(t)
	best, bestLen, bestBytes := 0, int(^uint(0)>>1), int64(-1)
	for s := 0; s < r.Machine().Sockets(); s++ {
		l := r.QueueLen(s)
		switch {
		case l < bestLen:
			best, bestLen, bestBytes = s, l, res[s]
		case l == bestLen && res[s] > bestBytes:
			best, bestBytes = s, res[s]
		}
	}
	return best
}

func main() {
	if err := numadag.RegisterPolicy("ShortestQueue",
		func(numadag.PolicySpec) (numadag.Policy, error) { return shortestQueue{}, nil }); err != nil {
		log.Fatal(err)
	}

	const app = "cg"
	e := &numadag.Experiment{
		Name:     "custompolicy",
		Apps:     []string{app},
		Policies: []string{"ShortestQueue", "LAS", "RGP+LAS"},
		Scale:    numadag.ScaleSmall,
	}
	fmt.Printf("benchmark %q, custom policy vs built-ins\n\n", app)
	report := numadag.SinkFunc(func(res numadag.CellResult) error {
		_, err := fmt.Printf("%-14s makespan %12v  remote %5.1f%%  imbalance %.2f\n",
			res.Cell.Policy, res.Stats.Makespan, 100*res.Stats.RemoteRatio(), res.Stats.LoadImbalance)
		return err
	})
	if err := e.Run(context.Background(), report); err != nil {
		log.Fatal(err)
	}
}
