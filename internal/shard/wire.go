package shard

import (
	"bytes"
	"encoding/json"
	"fmt"
	"hash/fnv"

	"numadag/internal/core"
	"numadag/internal/rt"
	"numadag/internal/sim"
)

// WireVersion is the current cell-result wire-format version.
//
// Compatibility rule: a record's "v" field names the layout of the whole
// line. Readers accept exactly the versions they know (today: 1) and
// reject anything else instead of guessing; any field addition, removal,
// rename or semantic change bumps the version, and future readers must
// keep decoding every released version — v1 journals stay mergeable
// forever. Encoding is canonical (fixed field order, Go's shortest
// round-trip float formatting), and the decoders accept only canonical
// lines, so encode(decode(line)) reproduces every accepted line
// byte-for-byte and a journal can be re-encoded without drift.
const WireVersion = 1

// Header is the first line of every journal/shard stream. It binds the
// records that follow to one experiment grid (name, size and a hash of the
// canonical cell enumeration) and one shard of it, so resume and merge can
// reject streams from a different grid instead of silently mixing them.
type Header struct {
	V          int    `json:"v"`
	Kind       string `json:"kind"` // always headerKind
	Experiment string `json:"experiment"`
	Total      int    `json:"total"` // full canonical grid size
	Grid       string `json:"grid"`  // GridHash of the canonical enumeration
	ShardIndex int    `json:"shard_index"`
	ShardCount int    `json:"shard_count"`
}

const headerKind = "numadag-cells"

// Record is version WireVersion of the cell-result wire format: the cell's
// canonical coordinates plus the full run statistics. It is the one
// encoding shared by checkpoint journals, shard outputs and the
// coordinator protocol. Decode reconstructs the (Cell, Stats) half of a
// core.CellResult bit-exactly; the Config half is not serialized — it is a
// pure function of the experiment declaration and the cell coordinates,
// and the stream-consuming sinks read only Cell and Stats.
type Record struct {
	V         int       `json:"v"`
	Index     int       `json:"index"`
	App       string    `json:"app"`
	Policy    string    `json:"policy"`
	Machine   string    `json:"machine"`
	Variant   string    `json:"variant,omitempty"`
	Replicate int       `json:"replicate"`
	Seed      uint64    `json:"seed"`
	Stats     wireStats `json:"stats"`
}

// wireStats mirrors rt.Result field for field. Integer fields are exact by
// construction; float64 fields round-trip bit-exactly because Go's JSON
// encoder emits the shortest decimal that parses back to the same bits.
type wireStats struct {
	Makespan       sim.Time   `json:"makespan"`
	TasksRun       int        `json:"tasks_run"`
	BusyTime       []sim.Time `json:"busy_time,omitempty"`
	LocalBytes     int64      `json:"local_bytes"`
	RemoteBytes    int64      `json:"remote_bytes"`
	RemoteByteHops int64      `json:"remote_byte_hops"`
	Steals         int        `json:"steals"`
	Deferred       int        `json:"deferred"`
	SocketTasks    []int      `json:"socket_tasks,omitempty"`
	CutBytes       int64      `json:"cut_bytes"`
	LoadImbalance  float64    `json:"load_imbalance"`
	MeanPortUtil   float64    `json:"mean_port_util"`
	MaxPortUtil    float64    `json:"max_port_util"`
}

// NewRecord converts a cell result to its wire form.
func NewRecord(res core.CellResult) Record {
	st := res.Stats
	return Record{
		V:         WireVersion,
		Index:     res.Cell.Index,
		App:       res.Cell.App,
		Policy:    res.Cell.Policy,
		Machine:   res.Cell.Machine,
		Variant:   res.Cell.Variant,
		Replicate: res.Cell.Replicate,
		Seed:      res.Cell.Seed,
		Stats: wireStats{
			Makespan:       st.Makespan,
			TasksRun:       st.TasksRun,
			BusyTime:       st.BusyTime,
			LocalBytes:     st.LocalBytes,
			RemoteBytes:    st.RemoteBytes,
			RemoteByteHops: st.RemoteByteHops,
			Steals:         st.Steals,
			Deferred:       st.Deferred,
			SocketTasks:    st.SocketTasks,
			CutBytes:       st.CutBytes,
			LoadImbalance:  st.LoadImbalance,
			MeanPortUtil:   st.MeanPortUtilization,
			MaxPortUtil:    st.MaxPortUtilization,
		},
	}
}

// CellResult converts a decoded record back to a core.CellResult with the
// Cell and Stats halves populated (Config is zero — see Record).
func (r Record) CellResult() core.CellResult {
	return core.CellResult{
		Cell: core.Cell{
			Index:     r.Index,
			App:       r.App,
			Policy:    r.Policy,
			Machine:   r.Machine,
			Variant:   r.Variant,
			Replicate: r.Replicate,
			Seed:      r.Seed,
		},
		Stats: rt.Result{
			Makespan:            r.Stats.Makespan,
			TasksRun:            r.Stats.TasksRun,
			BusyTime:            r.Stats.BusyTime,
			LocalBytes:          r.Stats.LocalBytes,
			RemoteBytes:         r.Stats.RemoteBytes,
			RemoteByteHops:      r.Stats.RemoteByteHops,
			Steals:              r.Stats.Steals,
			Deferred:            r.Stats.Deferred,
			SocketTasks:         r.Stats.SocketTasks,
			CutBytes:            r.Stats.CutBytes,
			LoadImbalance:       r.Stats.LoadImbalance,
			MeanPortUtilization: r.Stats.MeanPortUtil,
			MaxPortUtilization:  r.Stats.MaxPortUtil,
		},
	}
}

// Encode renders one result as its canonical wire line (newline included).
func Encode(res core.CellResult) ([]byte, error) {
	b, err := json.Marshal(NewRecord(res))
	if err != nil {
		return nil, fmt.Errorf("shard: encode cell %d: %w", res.Cell.Index, err)
	}
	return append(b, '\n'), nil
}

// Decode parses one wire line (trailing newline optional) produced by
// Encode, rejecting unknown wire versions and non-canonical lines.
func Decode(line []byte) (core.CellResult, error) {
	var r Record
	if err := json.Unmarshal(line, &r); err != nil {
		return core.CellResult{}, fmt.Errorf("shard: decode record: %w", err)
	}
	if r.V != WireVersion {
		return core.CellResult{}, fmt.Errorf("shard: record wire version %d, this reader knows %d", r.V, WireVersion)
	}
	if err := checkCanonical("record", line, r); err != nil {
		return core.CellResult{}, err
	}
	return r.CellResult(), nil
}

// checkCanonical rejects a parsed line that is not byte-identical to the
// re-encoding of what it parsed to: extra whitespace, reordered, unknown,
// duplicate or case-folded keys, explicit empty or null lists, and
// non-shortest numbers all parse but would not survive a round trip.
func checkCanonical(what string, line []byte, v any) error {
	b, err := json.Marshal(v)
	if err != nil {
		return fmt.Errorf("shard: re-encode %s: %w", what, err)
	}
	if !bytes.Equal(b, bytes.TrimSuffix(line, []byte("\n"))) {
		return fmt.Errorf("shard: %s line is not in canonical wire form", what)
	}
	return nil
}

// EncodeHeader renders a stream header line (newline included).
func EncodeHeader(h Header) ([]byte, error) {
	h.V = WireVersion
	h.Kind = headerKind
	b, err := json.Marshal(h)
	if err != nil {
		return nil, fmt.Errorf("shard: encode header: %w", err)
	}
	return append(b, '\n'), nil
}

// DecodeHeader parses a stream's header line (trailing newline optional),
// rejecting foreign kinds, unknown wire versions and non-canonical lines.
func DecodeHeader(line []byte) (Header, error) {
	var h Header
	if err := json.Unmarshal(line, &h); err != nil {
		return Header{}, fmt.Errorf("shard: decode header: %w", err)
	}
	if h.Kind != headerKind {
		return Header{}, fmt.Errorf("shard: not a cell stream (kind %q)", h.Kind)
	}
	if h.V != WireVersion {
		return Header{}, fmt.Errorf("shard: stream wire version %d, this reader knows %d", h.V, WireVersion)
	}
	if err := checkCanonical("header", line, h); err != nil {
		return Header{}, err
	}
	return h, nil
}

// GridHash fingerprints a canonical cell enumeration (FNV-1a over every
// cell's coordinates). Two experiment declarations produce the same hash
// exactly when they enumerate the same grid, which is what resume and
// merge require.
func GridHash(cells []core.Cell) string {
	h := fnv.New64a()
	var buf bytes.Buffer
	for _, c := range cells {
		buf.Reset()
		fmt.Fprintf(&buf, "%d\x00%s\x00%s\x00%s\x00%s\x00%d\x00%d\n",
			c.Index, c.App, c.Policy, c.Machine, c.Variant, c.Replicate, c.Seed)
		h.Write(buf.Bytes())
	}
	return fmt.Sprintf("%016x", h.Sum64())
}

// HeaderFor builds the stream header binding one shard of an experiment's
// grid: it enumerates the canonical cells (validating the declaration) and
// fingerprints them.
func HeaderFor(e *core.Experiment, sp Spec) (Header, error) {
	if err := sp.Validate(); err != nil {
		return Header{}, err
	}
	cells, err := e.Cells()
	if err != nil {
		return Header{}, err
	}
	sp = sp.Norm()
	return Header{
		V:          WireVersion,
		Kind:       headerKind,
		Experiment: e.Name,
		Total:      len(cells),
		Grid:       GridHash(cells),
		ShardIndex: sp.Index,
		ShardCount: sp.Count,
	}, nil
}
