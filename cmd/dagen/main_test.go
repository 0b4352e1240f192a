package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// runDagen runs the command in-process and returns its report.
func runDagen(t *testing.T, args ...string) string {
	t.Helper()
	var out strings.Builder
	if err := run(args, &out); err != nil {
		t.Fatalf("dagen %s: %v\n%s", strings.Join(args, " "), err, out.String())
	}
	return out.String()
}

func TestList(t *testing.T) {
	out := runDagen(t, "-list")
	for _, want := range []string{"workloads:", "  forkjoin ", "  file ", "policies:", "  RGP+LAS\n", "  LAS\n"} {
		if !strings.Contains(out, want) {
			t.Errorf("-list output lacks %q:\n%s", want, out)
		}
	}
}

// TestPartsMap pins the partitioner report: the numbers the stand-alone
// partitioner CLI printed for the same graph, mapping and seed.
func TestPartsMap(t *testing.T) {
	out := runDagen(t, "-spec", "qr", "-scale", "tiny", "-parts", "8", "-map")
	for _, want := range []string{
		"mapping onto bullion-s16-8x4: comm cost 1794100\n",
		"parts=8 cut=1163299 imbalance=0.2684\n",
		"part weights: [1835008 1572864 1323008 1323008 1318912 1310720 1839104 1077248]\n",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("output lacks %q:\n%s", want, out)
		}
	}
	for _, bad := range [][]string{{"-parts", "4", "-map"}, {"-parts", "-3"}} {
		var sink strings.Builder
		if err := run(append([]string{"-spec", "qr", "-scale", "tiny"}, bad...), &sink); err == nil {
			t.Errorf("dagen %v accepted", bad)
		}
	}
}

func TestRunGanttTrace(t *testing.T) {
	path := filepath.Join(t.TempDir(), "trace.json")
	out := runDagen(t, "-spec", "forkjoin?depth=3&fanout=2", "-scale", "tiny", "-machine", "2socket",
		"-run", "-policy", "LAS", "-window", "16", "-nosteal", "-gantt", "-trace", path)
	if !strings.Contains(out, "run: policy=LAS machine=xeon-2x8 window=16 seed=1") {
		t.Errorf("run header missing:\n%s", out)
	}
	if !regexp.MustCompile(`(?m)^core 0 +\|[#.]+\|$`).MatchString(out) {
		t.Errorf("gantt core rows missing:\n%s", out)
	}
	if strings.Contains(out, "steals") {
		t.Errorf("-nosteal run stole:\n%s", out)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var top struct {
		TraceEvents []json.RawMessage `json:"traceEvents"`
	}
	if err := json.Unmarshal(data, &top); err != nil {
		t.Fatalf("trace is not {\"traceEvents\":[...]}: %v", err)
	}
	if len(top.TraceEvents) == 0 {
		t.Fatal("trace has no events")
	}
	var sink strings.Builder
	if err := run([]string{"-spec", "qr", "-gantt"}, &sink); err == nil {
		t.Error("-gantt without -run accepted")
	}
}

// TestJSONReimport: an exported DAG re-imports through file?path= with the
// same node and edge counts.
func TestJSONReimport(t *testing.T) {
	path := filepath.Join(t.TempDir(), "g.json")
	out := runDagen(t, "-spec", "random-layered?layers=5&width=6", "-scale", "tiny", "-json", path)
	graphLine := regexp.MustCompile(`graph: (\d+) nodes, (\d+) edges`)
	want := graphLine.FindStringSubmatch(out)
	if want == nil {
		t.Fatalf("no graph line:\n%s", out)
	}
	got := graphLine.FindStringSubmatch(runDagen(t, "-spec", "file?path="+path))
	if got == nil || got[1] != want[1] || got[2] != want[2] {
		t.Fatalf("re-import: %v, export: %v", got, want)
	}
}
