package shard_test

import (
	"bytes"
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
