package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"time"
)

// span is one timed call from the benchmark into a layer's public function.
type span struct {
	name   string
	parent int // index of the enclosing span, -1 at top level
	id     int // grid cell index or service job id, -1 for neither
	start  int64
	end    int64 // ns since the recorder's epoch
	// inner is time inside this span spent in per-call children that are
	// counted rather than recorded one by one (PickSocket), in ns.
	inner int64
}

// recorder keeps the spans of one traced pass in memory. Spans nest
// strictly (begin/end in stack order on one goroutine); the traced passes
// are sequential so that layer self-times add up to wall time. All methods
// are no-ops on a nil recorder, so set-up code is shared with the untraced
// run.
type recorder struct {
	epoch time.Time
	spans []span
	stack []int
}

func newRecorder() *recorder { return &recorder{epoch: time.Now()} }

func (r *recorder) now() int64 { return int64(time.Since(r.epoch)) }

// begin opens a span nested in the innermost open one and returns its
// handle for end.
func (r *recorder) begin(name string, id int) int {
	if r == nil {
		return -1
	}
	parent := -1
	if n := len(r.stack); n > 0 {
		parent = r.stack[n-1]
	}
	r.spans = append(r.spans, span{name: name, parent: parent, id: id, start: r.now()})
	i := len(r.spans) - 1
	r.stack = append(r.stack, i)
	return i
}

// end closes span i, which must be the innermost open span.
func (r *recorder) end(i int) {
	if r == nil {
		return
	}
	n := len(r.stack)
	if n == 0 || r.stack[n-1] != i {
		panic(fmt.Sprintf("perfbench: span %q closed out of order", r.spans[i].name))
	}
	r.stack = r.stack[:n-1]
	r.spans[i].end = r.now()
}

// addInner charges d of counted child time to the innermost open span.
func (r *recorder) addInner(d time.Duration) {
	if r == nil {
		return
	}
	if n := len(r.stack); n > 0 {
		r.spans[r.stack[n-1]].inner += int64(d)
	}
}

// selfTimes returns, per span name, the summed self time in ns: each span's
// duration minus its child spans and its counted inner time.
func (r *recorder) selfTimes() map[string]int64 {
	self := make(map[string]int64)
	for _, s := range r.spans {
		d := s.end - s.start
		self[s.name] += d - s.inner
		if s.parent >= 0 {
			self[r.spans[s.parent].name] -= d
		}
	}
	return self
}

// duration returns the summed duration of every span with the given name.
func (r *recorder) duration(name string) int64 {
	var d int64
	for _, s := range r.spans {
		if s.name == name {
			d += s.end - s.start
		}
	}
	return d
}

// writeChrome writes the spans as a Chrome trace (viewable in Perfetto).
func (r *recorder) writeChrome(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	type event struct {
		Name string         `json:"name"`
		Ph   string         `json:"ph"`
		Ts   float64        `json:"ts"`
		Dur  float64        `json:"dur"`
		Pid  int            `json:"pid"`
		Tid  int            `json:"tid"`
		Args map[string]any `json:"args,omitempty"`
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	_, err = w.WriteString("{\"traceEvents\":[\n")
	for i, s := range r.spans {
		if err != nil {
			break
		}
		if i > 0 {
			_, err = w.WriteString(",")
		}
		ev := event{Name: s.name, Ph: "X", Ts: float64(s.start) / 1e3, Dur: float64(s.end-s.start) / 1e3, Pid: 1, Tid: 1}
		if s.id >= 0 || s.inner > 0 {
			ev.Args = map[string]any{}
			if s.id >= 0 {
				ev.Args["id"] = s.id
			}
			if s.inner > 0 {
				ev.Args["pick_us"] = float64(s.inner) / 1e3
			}
		}
		if err == nil {
			err = enc.Encode(ev)
		}
	}
	if err == nil {
		_, err = w.WriteString("]}\n")
	}
	if err == nil {
		err = w.Flush()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}
