package main

import (
	"bufio"
	"fmt"
	"math"

	"numadag/internal/core"
)

// fidelityBand is the relative distance from the paper's value within which
// a Figure-1 reference point counts as reproduced.
const fidelityBand = 0.20

// paperPoints are the values the paper states for Figure 1: the RGP+LAS
// geomean and NStream speed-ups in the text, and the DFIFO bars the figure
// annotates.
var paperPoints = []struct {
	label, row, col string
	paper           float64
}{
	{"RGP+LAS geomean", "geomean", "RGP+LAS", 1.12},
	{"NStream, EP", "nstream", "EP", 1.75},
	{"NStream, RGP+LAS", "nstream", "RGP+LAS", 1.74},
	{"DFIFO, inthist", "inthist", "DFIFO", 0.40},
	{"DFIFO, jacobi", "jacobi", "DFIFO", 0.42},
	{"DFIFO, nstream", "nstream", "DFIFO", 0.49},
	{"DFIFO, syminv", "syminv", "DFIFO", 0.68},
}

// printFidelity prints the model's error beside the paper's Figure-1
// values. Misses stay visible as misses.
func printFidelity(out *bufio.Writer, t *core.TableSink) {
	fmt.Fprintf(out, "fidelity (speed-up over LAS; reproduced = within %.0f%% of the paper)\n", 100*fidelityBand)
	for _, p := range paperPoints {
		got := t.Table().Get(p.row, p.col)
		status := "reproduced"
		if math.Abs(got/p.paper-1) > fidelityBand {
			status = "miss"
		}
		fmt.Fprintf(out, "fidelity %-18s paper %.2f  model %.3f  %s\n", p.label, p.paper, got, status)
	}
}
