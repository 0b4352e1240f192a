package shard_test

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"

	"numadag/internal/shard"
)

// FuzzDecode feeds arbitrary bytes to the wire decoders — the parsers that
// read journals, shard files and coordinator upload payloads. Neither may
// panic, and every line either one accepts must re-encode to exactly its
// own bytes (the optional trailing newline restored): the decoders accept
// only canonical lines.
//
// The seed corpus in testdata/fuzz/FuzzDecode holds a valid header, a valid
// cell line, a torn cell line (a crash mid-write) and a cell line with an
// unknown wire version. Corpus entries run as plain unit tests in normal
// `go test` invocations; `make fuzz-smoke` runs a short coverage-guided
// session on top.
func FuzzDecode(f *testing.F) {
	f.Fuzz(func(t *testing.T, line []byte) {
		want := line
		if !bytes.HasSuffix(want, []byte("\n")) {
			want = append(want[:len(want):len(want)], '\n')
		}
		if res, err := shard.Decode(line); err == nil {
			got, err := shard.Encode(res)
			if err != nil {
				t.Fatalf("accepted record does not re-encode: %v", err)
			}
			if !bytes.Equal(got, want) {
				t.Fatalf("record round trip drifted:\n in  %q\n out %q", want, got)
			}
		}
		if h, err := shard.DecodeHeader(line); err == nil {
			got, err := shard.EncodeHeader(h)
			if err != nil {
				t.Fatalf("accepted header does not re-encode: %v", err)
			}
			if !bytes.Equal(got, want) {
				t.Fatalf("header round trip drifted:\n in  %q\n out %q", want, got)
			}
		}
	})
}

// FuzzOpenJournal resumes journals made of arbitrary file bytes, against
// the 4-cell test grid's header for the whole grid or for shard 0/2. It
// checks the torn-tail recovery contract:
//   - no input makes OpenJournal panic;
//   - an accepted journal, closed and reopened, gives the same done set
//     and leaves the file bytes unchanged (recovery is idempotent);
//   - every complete record line of an accepted journal appears in
//     Results() (no accepted line is lost).
//
// The seeds are real journals of the test grid: complete, torn mid-record,
// header only, empty, and with a record rewritten out of the grid.
func FuzzOpenJournal(f *testing.F) {
	for _, sp := range []shard.Spec{{}, {Index: 0, Count: 2}} {
		whole := fullJournal(f, sp)
		half := sp.Count == 2
		f.Add(whole, half)
		f.Add(whole[:len(whole)-9], half)
		f.Add(whole[:bytes.IndexByte(whole, '\n')+1], half)
		f.Add([]byte{}, half)
		f.Add(bytes.Replace(whole, []byte(`"index":0,`), []byte(`"index":99,`), 1), half)
	}
	headers := map[bool]shard.Header{}
	for half, sp := range map[bool]shard.Spec{false: {}, true: {Index: 0, Count: 2}} {
		h, err := shard.HeaderFor(testExperiment(), sp)
		if err != nil {
			f.Fatal(err)
		}
		headers[half] = h
	}
	f.Fuzz(func(t *testing.T, data []byte, half bool) {
		h := headers[half]
		path := filepath.Join(t.TempDir(), "j.cells.jsonl")
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		j, err := shard.OpenJournal(path, h, true)
		if err != nil {
			return
		}
		first := j.Results()
		if err := j.Close(); err != nil {
			t.Fatal(err)
		}
		kept, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(kept, data[:bytes.LastIndexByte(data, '\n')+1]) {
			t.Fatalf("resume kept %q of %q, want everything up to the last newline", kept, data)
		}

		j, err = shard.OpenJournal(path, h, true)
		if err != nil {
			t.Fatalf("reopening an accepted journal failed: %v", err)
		}
		second := j.Results()
		if err := j.Close(); err != nil {
			t.Fatal(err)
		}
		again, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(again, kept) {
			t.Fatalf("reopen changed the file:\n before %q\n after  %q", kept, again)
		}
		if len(first) != len(second) {
			t.Fatalf("reopen loaded %d cells, first open %d", len(second), len(first))
		}
		encoded := make(map[string]bool, len(second))
		for i, res := range second {
			if res.Cell.Index != first[i].Cell.Index {
				t.Fatalf("reopen done set differs at %d: index %d vs %d", i, res.Cell.Index, first[i].Cell.Index)
			}
			line, err := shard.Encode(res)
			if err != nil {
				t.Fatal(err)
			}
			encoded[string(line)] = true
		}
		lines := bytes.SplitAfter(kept, []byte("\n"))
		records := 0
		for _, line := range lines[1:] {
			if len(line) == 0 {
				continue
			}
			records++
			if !encoded[string(line)] {
				t.Fatalf("accepted record line missing from Results(): %q", line)
			}
		}
		if records != len(second) {
			t.Fatalf("journal has %d record lines, Results() %d", records, len(second))
		}
	})
}
