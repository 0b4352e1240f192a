package core

import (
	"errors"
	"testing"

	"numadag/internal/apps"
	"numadag/internal/rt"
	"numadag/internal/trace"
)

// TestReleaseVsObserverContract pins the pooling rule tracing depends on:
// a plain run recycles its pooled runtime (rt.Releases advances), while a
// run with a Tracer attached must NOT — tracer hooks are undetachable and
// the tracer holds tasks, so recycling would leak one cell's
// instrumentation into the next cell's run.
func TestReleaseVsObserverContract(t *testing.T) {
	cfg := DefaultConfig("forkjoin?depth=3&fanout=2", "LAS", apps.Tiny)

	before := rt.Releases()
	if _, err := Run(cfg); err != nil {
		t.Fatal(err)
	}
	if rt.Releases() == before {
		t.Error("plain run did not recycle its pooled runtime")
	}

	traced := cfg
	traced.Trace = trace.NewTracer()
	before = rt.Releases()
	res, err := Run(traced)
	if err != nil {
		t.Fatal(err)
	}
	if got := rt.Releases(); got != before {
		t.Errorf("traced run recycled %d pooled runtime(s); traced machines must bypass the pools", got-before)
	}
	if res.Tasks == 0 {
		t.Error("traced run produced no tasks")
	}
	if traced.Trace.Spans() == 0 {
		t.Error("traced run recorded no spans")
	}
}

// TestRunRejectsRuntimeObserver: the tracer is the only observer an
// audited run takes, with or without a Tracer alongside.
func TestRunRejectsRuntimeObserver(t *testing.T) {
	cfg := DefaultConfig("forkjoin?depth=3&fanout=2", "LAS", apps.Tiny)
	cfg.Runtime.Observer = nopObserver{}
	if _, err := Run(cfg); !errors.Is(err, errObserver) {
		t.Fatalf("Run with Runtime.Observer: err = %v, want errObserver", err)
	}
	cfg.Trace = trace.NewTracer()
	if _, err := Run(cfg); !errors.Is(err, errObserver) {
		t.Fatalf("traced Run with Runtime.Observer: err = %v, want errObserver", err)
	}
	if n := cfg.Trace.Spans(); n != 0 {
		t.Fatalf("rejected run recorded %d spans", n)
	}
}
