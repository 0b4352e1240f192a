package trace

import (
	"encoding/json"
	"strings"
	"testing"

	"numadag/internal/machine"
	"numadag/internal/memory"
	"numadag/internal/rt"
	"numadag/internal/sim"
)

type pinZero struct{}

func (pinZero) Name() string                         { return "pin0" }
func (pinZero) PickSocket(*rt.Runtime, *rt.Task) int { return 0 }

// record runs n independent single-output tasks pinned to socket 0 with a
// Tracer attached as pid 0.
func record(t *testing.T, n int) *Tracer {
	t.Helper()
	tr := NewTracer()
	m := machine.New(machine.TwoSocketXeon(), sim.NewEngine())
	r := rt.NewRuntime(m, pinZero{}, rt.Options{Observer: tr.AttachMachine(m, 0, "pin0")})
	for i := 0; i < n; i++ {
		reg := r.Mem().Alloc("x", 4096, memory.Deferred, 0)
		r.Submit(rt.TaskSpec{Label: "task", Flops: 1000,
			Accesses: []rt.Access{{Region: reg, Mode: rt.Out}}, EPSocket: rt.NoEPHint})
	}
	r.Run()
	return tr
}

// taskSpans parses the trace and returns its ph=X spans on core lanes (the
// tasks; transfer and flow spans carry their own names).
func taskSpans(t *testing.T, tr *Tracer) []map[string]any {
	t.Helper()
	var sb strings.Builder
	if err := tr.WriteChromeTrace(&sb); err != nil {
		t.Fatal(err)
	}
	var top struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal([]byte(sb.String()), &top); err != nil {
		t.Fatalf("invalid JSON: %v", err)
	}
	var tasks []map[string]any
	for _, e := range top.TraceEvents {
		if e["ph"] == "X" && e["name"] == "task" {
			tasks = append(tasks, e)
		}
	}
	return tasks
}

// TestRecorderCapturesAllTasks: the tracer, used as a plain task recorder,
// records one core-lane span per executed task.
func TestRecorderCapturesAllTasks(t *testing.T) {
	spans := taskSpans(t, record(t, 10))
	if len(spans) != 10 {
		t.Fatalf("recorded %d task spans, want 10", len(spans))
	}
	lo, hi := machine.New(machine.TwoSocketXeon(), sim.NewEngine()).CoresOf(0)
	for _, e := range spans {
		if e["dur"].(float64) < 0 {
			t.Fatalf("span %v ends before it starts", e)
		}
		if c := int(e["tid"].(float64)); c < lo || c >= hi {
			t.Fatalf("span on core %d, want a socket-0 core in [%d,%d)", c, lo, hi)
		}
	}
}

func TestChromeTraceIsValidJSON(t *testing.T) {
	if n := len(taskSpans(t, record(t, 5))); n != 5 {
		t.Fatalf("trace has %d task spans, want 5", n)
	}
}

func TestGanttRender(t *testing.T) {
	var sb strings.Builder
	if err := record(t, 8).WriteGantt(&sb, 0, 60); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	if !strings.Contains(out, "core 0") {
		t.Errorf("gantt missing core rows:\n%s", out)
	}
	if !strings.Contains(out, "#") {
		t.Error("gantt shows no busy time")
	}
	// Header + 16 cores + one flow lane (the tasks write to socket 0's
	// memory controller).
	if lines := strings.Count(out, "\n"); lines != 18 {
		t.Errorf("gantt has %d lines, want 18:\n%s", lines, out)
	}
}

// TestGanttEmptyRecorder: an attached machine that never ran renders a
// chart with no spans.
func TestGanttEmptyRecorder(t *testing.T) {
	tr := NewTracer()
	tr.AttachMachine(machine.New(machine.TwoSocketXeon(), sim.NewEngine()), 0, "idle")
	var sb strings.Builder
	if err := tr.WriteGantt(&sb, 0, 0); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "0 spans") {
		t.Errorf("empty gantt header wrong:\n%s", sb.String())
	}
}
