package workload

import (
	"reflect"
	"testing"
)

// FuzzParseSpec feeds arbitrary strings to ParseSpec, the parser behind
// every -apps flag and dcsim tenant mix. It must never panic, and every
// spec it accepts must survive a round trip through its canonical
// rendering: ParseSpec(spec.String()) gives back an equal Spec.
//
// The seed corpus in testdata/fuzz/FuzzParseSpec holds a bare name, a
// parameter list out of canonical order, separators inside keys and values
// ('?' in a key, '=' in a value, an empty value), and rejected shapes (an
// empty name, a parameter without '=', a duplicate key). Corpus entries run
// as plain unit tests in normal `go test` invocations; `make fuzz-smoke`
// runs a short coverage-guided session on top.
func FuzzParseSpec(f *testing.F) {
	f.Fuzz(func(t *testing.T, s string) {
		spec, err := ParseSpec(s)
		if err != nil {
			return
		}
		canon := spec.String()
		again, err := ParseSpec(canon)
		if err != nil {
			t.Fatalf("ParseSpec(%q) accepted, but its rendering %q is rejected: %v", s, canon, err)
		}
		if !reflect.DeepEqual(again, spec) {
			t.Fatalf("round trip drifted: ParseSpec(%q) = %+v, ParseSpec(%q) = %+v", s, spec, canon, again)
		}
	})
}
