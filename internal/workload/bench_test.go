package workload

import (
	"testing"

	"numadag/internal/apps"
	"numadag/internal/machine"
	"numadag/internal/rt"
)

// BenchmarkBuildSnapshots measures building the eight paper apps' task
// graphs at paper scale on the paper's machine — resolve the spec, replay
// the generator through Submit on a throwaway runtime, capture it with
// rt.Snap — which is what every grid pays before its first cell runs.
// One op builds all eight.
func BenchmarkBuildSnapshots(b *testing.B) {
	mc := machine.BullionS16()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		for _, name := range apps.Names() {
			w, err := New(name, apps.Paper)
			if err != nil {
				b.Fatal(err)
			}
			r, err := w.Instantiate(mc)
			if err != nil {
				b.Fatal(err)
			}
			if _, err := rt.Snap(r); err != nil {
				b.Fatal(err)
			}
			r.Release()
		}
	}
}
