package cliutil

import (
	"flag"
	"testing"
)

// TestTraceOutEnable: without -trace (and without force) Enable returns a
// nil tracer, which a config's Trace field reads as "untraced"; forcing
// creates one.
func TestTraceOutEnable(t *testing.T) {
	fs := flag.NewFlagSet("x", flag.ContinueOnError)
	to := BindTrace(fs)
	if err := fs.Parse(nil); err != nil {
		t.Fatal(err)
	}
	if tr := to.Enable(false); tr != nil {
		t.Fatalf("Enable(false) with no -trace = %v, want nil", tr)
	}
	if err := to.Write(); err != nil {
		t.Fatalf("Write with tracing off: %v", err)
	}
	if tr := to.Enable(true); tr == nil || to.Tracer != tr {
		t.Fatal("Enable(true) did not create and keep a tracer")
	}
}
