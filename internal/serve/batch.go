package serve

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"slices"
	"strconv"
	"strings"

	"repro/internal/geom"
	"repro/internal/obs"
)

// Op enumerates the mutation kinds a session pipeline applies.
type Op uint8

const (
	OpAdd Op = iota + 1
	OpRemove
	OpMove
	OpSetRadius
	OpAnneal
)

// String names the op as it appears in traces and the HTTP API.
func (o Op) String() string {
	switch o {
	case OpAdd:
		return "add"
	case OpRemove:
		return "remove"
	case OpMove:
		return "move"
	case OpSetRadius:
		return "set"
	case OpAnneal:
		return "anneal"
	}
	return "unknown"
}

// opFromString inverts Op.String (also accepting the HTTP API's
// "set_radius" spelling).
func opFromString(s string) (Op, bool) {
	switch s {
	case "add":
		return OpAdd, true
	case "remove":
		return OpRemove, true
	case "move":
		return OpMove, true
	case "set", "set_radius":
		return OpSetRadius, true
	case "anneal":
		return OpAnneal, true
	}
	return 0, false
}

// Mutation is one pipeline operation. Node addresses the stable external
// node ID (not the engine index); for OpAdd a negative Node requests
// automatic assignment — use the constructors below, whose zero-valued
// fields are always safe.
type Mutation struct {
	Op    Op
	Node  int64   // target ID; for OpAdd: -1 = assign, >= 0 = forced (replay)
	X, Y  float64 // OpAdd, OpMove
	R     float64 // OpSetRadius
	Iters int     // OpAnneal
	Seed  int64   // OpAnneal

	// TC carries the distributed trace context of the request that
	// enqueued this mutation (nil = untraced); the batch that drains it
	// adopts the first traced mutation's context. EnqNS is the enqueue
	// wall clock, stamped by Apply while observability is on — the
	// flight recorder's queue-wait stage. Neither field is part of the
	// op record (AppendOps); a traced batch carries one trace block after
	// its ops instead, in a rimwire frame and a WAL record alike.
	TC    *obs.TraceContext
	EnqNS int64
}

// Add enqueues a new node at (x, y) with an automatically assigned ID.
func Add(x, y float64) Mutation { return Mutation{Op: OpAdd, Node: -1, X: x, Y: y} }

// Remove deletes node id.
func Remove(id int64) Mutation { return Mutation{Op: OpRemove, Node: id} }

// Move relocates node id to (x, y), keeping its ID.
func Move(id int64, x, y float64) Mutation { return Mutation{Op: OpMove, Node: id, X: x, Y: y} }

// SetRadius overrides node id's transmission radius.
func SetRadius(id int64, r float64) Mutation { return Mutation{Op: OpSetRadius, Node: id, R: r} }

// AnnealStep runs a deterministic simulated-annealing budget over the
// whole instance, adopting the result.
func AnnealStep(iters int, seed int64) Mutation {
	return Mutation{Op: OpAnneal, Iters: iters, Seed: seed}
}

// The binary op codec: rimwire's MsgMutate payload and the WAL batch
// record share it. Ops are fixed 33-byte records after a uint32 count —
//
//	offset 0   uint8  op (the Op value)
//	offset 1   int64  node id
//	offset 9   uint64 a
//	offset 17  uint64 b
//	offset 25  uint64 c
//
// with a/b/c carrying the op-specific fields as raw little-endian
// words: add/move store x/y float bits in a/b; set_radius stores r bits
// in a; anneal stores iters in a and seed in b. Unused words are zero.
// Floats travel as their bits, so a decode is exact. Encode appends
// into caller-owned buffers and decode appends into caller-owned
// slices: nothing allocates once those reach steady-state size.

// ErrBadOps reports a malformed op or trace block.
var ErrBadOps = errors.New("serve: malformed op block")

// OpRecordSize is the fixed encoded size of one mutation op.
const OpRecordSize = 33

// AppendOps appends the op-count word and the fixed records for ops.
func AppendOps(dst []byte, ops []Mutation) []byte {
	dst = binary.LittleEndian.AppendUint32(dst, uint32(len(ops)))
	for i := range ops {
		mu := &ops[i]
		var a, b, c uint64
		switch mu.Op {
		case OpAdd, OpMove:
			a, b = math.Float64bits(mu.X), math.Float64bits(mu.Y)
		case OpSetRadius:
			a = math.Float64bits(mu.R)
		case OpAnneal:
			a, b = uint64(mu.Iters), uint64(mu.Seed)
		}
		dst = append(dst, byte(mu.Op))
		dst = binary.LittleEndian.AppendUint64(dst, uint64(mu.Node))
		dst = binary.LittleEndian.AppendUint64(dst, a)
		dst = binary.LittleEndian.AppendUint64(dst, b)
		dst = binary.LittleEndian.AppendUint64(dst, c)
	}
	return dst
}

// DecodeOps parses an op block into the caller's slice (appended to, so
// pass into[:0] to reuse) and returns the bytes after it. The count
// word is cross-checked against the actual byte length before any slice
// growth.
func DecodeOps(p []byte, into []Mutation) ([]Mutation, []byte, error) {
	if len(p) < 4 {
		return into, nil, fmt.Errorf("%w: op count cut short", ErrBadOps)
	}
	count := int(binary.LittleEndian.Uint32(p))
	p = p[4:]
	if count < 0 || len(p) < count*OpRecordSize {
		return into, nil, fmt.Errorf("%w: %d ops but %d payload bytes", ErrBadOps, count, len(p))
	}
	into = slices.Grow(into, count)
	for i := 0; i < count; i++ {
		rec := p[i*OpRecordSize : (i+1)*OpRecordSize]
		op := Op(rec[0])
		if op < OpAdd || op > OpAnneal {
			return into, nil, fmt.Errorf("%w: unknown op %d", ErrBadOps, rec[0])
		}
		mu := Mutation{Op: op, Node: int64(binary.LittleEndian.Uint64(rec[1:9]))}
		a := binary.LittleEndian.Uint64(rec[9:17])
		b := binary.LittleEndian.Uint64(rec[17:25])
		unused := binary.LittleEndian.Uint64(rec[25:33]) // c
		switch op {
		case OpAdd, OpMove:
			mu.X, mu.Y = math.Float64frombits(a), math.Float64frombits(b)
		case OpRemove:
			unused |= a | b
		case OpSetRadius:
			mu.R = math.Float64frombits(a)
			unused |= b
		case OpAnneal:
			if a > math.MaxInt32 {
				return into, nil, fmt.Errorf("%w: anneal iters %d out of range", ErrBadOps, a)
			}
			mu.Iters = int(a)
			mu.Seed = int64(b)
		}
		if unused != 0 {
			// Only AppendOps's exact output decodes, so a decoded block
			// re-encodes to the same bytes.
			return into, nil, fmt.Errorf("%w: %s op has nonzero unused words", ErrBadOps, op)
		}
		into = append(into, mu)
	}
	return into, p[count*OpRecordSize:], nil
}

// Trace-context block: the 17 bytes a traced op block is followed by —
//
//	offset 0   uint64  trace id (nonzero)
//	offset 8   uint64  parent span id (the sender's span; 0 for a root)
//	offset 16  uint8   flags (obs.TraceFlag* bits)
//
// Trailing the ops keeps it invisible to a reader that stops after
// DecodeOps.

// TraceBlockSize is the fixed encoded size of one trace-context block.
const TraceBlockSize = 17

// AppendTraceContext appends one fixed trace-context block.
func AppendTraceContext(dst []byte, tc obs.TraceContext) []byte {
	dst = binary.LittleEndian.AppendUint64(dst, tc.TraceID)
	dst = binary.LittleEndian.AppendUint64(dst, tc.SpanID)
	return append(dst, tc.Flags)
}

// DecodeTraceContext parses a trace-context block off the front of p
// and returns the rest.
func DecodeTraceContext(p []byte) (obs.TraceContext, []byte, error) {
	if len(p) < TraceBlockSize {
		return obs.TraceContext{}, nil, fmt.Errorf("%w: trace block is %d bytes (want %d)", ErrBadOps, len(p), TraceBlockSize)
	}
	return obs.TraceContext{
		TraceID: binary.LittleEndian.Uint64(p[0:8]),
		SpanID:  binary.LittleEndian.Uint64(p[8:16]),
		Flags:   p[16],
	}, p[TraceBlockSize:], nil
}

// checkCoord rejects non-finite or out-of-bound coordinates. The bound
// matters operationally: the spatial index allocates cells over the
// instance's bounding box, so a single coordinate at 1e9 would make one
// cheap mutation allocate gigabytes.
func checkCoord(x, y, maxCoord float64) error {
	bad := func(f float64) bool { return math.IsNaN(f) || math.Abs(f) > maxCoord }
	if bad(x) || bad(y) {
		return fmt.Errorf("coordinates (%v, %v) outside [-%g, %g]", x, y, maxCoord, maxCoord)
	}
	return nil
}

// validate rejects malformed mutations at enqueue time, so the owner
// goroutine never has to crash on garbage (NaN or far-flung coordinates,
// negative radii, unbounded anneal budgets).
func (mu Mutation) validate(maxAnnealIters int, maxCoord float64) error {
	bad := func(f float64) bool { return math.IsNaN(f) || math.IsInf(f, 0) }
	switch mu.Op {
	case OpAdd, OpMove:
		if err := checkCoord(mu.X, mu.Y, maxCoord); err != nil {
			return fmt.Errorf("serve: %s with %w", mu.Op, err)
		}
	case OpSetRadius:
		if bad(mu.R) || mu.R < 0 {
			return fmt.Errorf("serve: set radius %v out of range", mu.R)
		}
	case OpAnneal:
		if mu.Iters <= 0 || mu.Iters > maxAnnealIters {
			return fmt.Errorf("serve: anneal iters %d outside (0, %d]", mu.Iters, maxAnnealIters)
		}
	case OpRemove:
	default:
		return fmt.Errorf("serve: unknown op %d", mu.Op)
	}
	return nil
}

// coalesce collapses redundant mutations within one drained batch: only
// the last set-radius per node survives. Dropping the earlier writes is
// sound because intermediate states inside a batch are unobservable
// (snapshots publish at batch boundaries only), radius overrides trigger
// no rebuilds, and the anneal step derives from positions alone. Used
// only outside deterministic mode: a deterministic trace must record
// every op the client enqueued, or replaying it would re-derive
// different rejections.
func coalesce(batch []Mutation) []Mutation {
	lastSet := make(map[int64]int)
	sets := 0
	for i, mu := range batch {
		if mu.Op == OpSetRadius {
			lastSet[mu.Node] = i
			sets++
		}
	}
	if sets <= len(lastSet) {
		return batch
	}
	out := batch[:0]
	for i, mu := range batch {
		if mu.Op == OpSetRadius && lastSet[mu.Node] != i {
			continue
		}
		out = append(out, mu)
	}
	return out
}

// Trace format. A deterministic-mode session emits a self-contained
// textual log:
//
//	rimd-trace v1 n=<n>
//	p i=<idx> x=<x> y=<y>                   one line per initial node
//	m seq=<s> <op fields> n=<n> max=<max>   one line per processed op
//	b seq=<s> k=<k> n=<n> max=<max>         one line per applied batch
//
// Applied op fields are, by kind,
//
//	add id=<id> x=<x> y=<y>
//	remove id=<id>
//	move id=<id> x=<x> y=<y>
//	set id=<id> r=<r>
//	anneal iters=<k> seed=<s>
//
// and a mutation targeting a nonexistent node keeps its slot as
// "reject <op fields>", so replays stay aligned with the recorded
// decision sequence. Floats use strconv's shortest round-trip form, which
// makes the format byte-stable under parse/format cycles.
//
// The b line closes the batch formed by the k preceding m lines and
// records the post-batch state — after the maintainer's deferred
// connectivity repair and rebuild-drift check have run, which the per-op
// lines cannot see. Because of that deferral the final state depends on
// where the boundaries fall, so an exact replay must reproduce them:
// ParseTraceBatches recovers the groups and Session.ApplyBatch pins
// each one to a single pipeline batch.

func ftoa(f float64) string { return strconv.FormatFloat(f, 'g', -1, 64) }

// formatOp renders the op-specific fields of a trace line (and of a
// v1 text WAL batch line, which is the same rendering).
func formatOp(mu Mutation) string {
	switch mu.Op {
	case OpAdd, OpMove:
		return fmt.Sprintf("%s id=%d x=%s y=%s", mu.Op, mu.Node, ftoa(mu.X), ftoa(mu.Y))
	case OpRemove:
		return fmt.Sprintf("remove id=%d", mu.Node)
	case OpSetRadius:
		return fmt.Sprintf("set id=%d r=%s", mu.Node, ftoa(mu.R))
	case OpAnneal:
		return fmt.Sprintf("anneal iters=%d seed=%d", mu.Iters, mu.Seed)
	}
	return "unknown"
}

// traceHeader renders the instance preamble for a graph-measure
// session (the historical format, byte-identical to pre-measure rimd).
func traceHeader(pts []geom.Point) []string {
	return traceHeaderMeasure(pts, MeasureGraph)
}

// traceHeaderMeasure renders the instance preamble. Non-default
// measures append a measure= token to the header line; the graph
// default stays tokenless so existing traces, WALs, and their parsers
// round-trip unchanged.
func traceHeaderMeasure(pts []geom.Point, measure string) []string {
	lines := make([]string, 0, len(pts)+1)
	head := fmt.Sprintf("rimd-trace v1 n=%d", len(pts))
	if measure != "" && measure != MeasureGraph {
		head += " measure=" + measure
	}
	lines = append(lines, head)
	for i, p := range pts {
		lines = append(lines, fmt.Sprintf("p i=%d x=%s y=%s", i, ftoa(p.X), ftoa(p.Y)))
	}
	return lines
}

// headerMeasure extracts the measure token from a rimd-trace header
// line, defaulting to graph for legacy headers.
func headerMeasure(header string) string {
	for _, tok := range strings.Fields(header) {
		if v, ok := strings.CutPrefix(tok, "measure="); ok {
			return v
		}
	}
	return MeasureGraph
}

// ErrTruncated reports trace text that does not end in a newline: the
// final line may be a longer record cut short (a partial copy, a torn
// file), so it cannot be trusted. ParseTrace returns it alongside the
// mutations parsed from the complete lines, letting a caller that knows
// the cut is benign keep the prefix.
var ErrTruncated = errors.New("serve: trace truncated (no final newline)")

// ParseTrace recovers the initial instance and the mutation sequence from
// trace text. Rejected ops are returned like applied ones — re-executing
// them through a fresh pipeline reproduces the same rejections, which is
// what keeps replay byte-identical. Lines starting with '#' are ignored.
//
// Every trace line is newline-terminated (TraceText guarantees it), so
// text that stops mid-line is damaged: the bytes after the last newline
// could be a complete-looking prefix of a longer record ("m seq=5 add
// id=3" cut from "...id=31 x=2 y=7"). ParseTrace refuses to guess — it
// parses the complete lines and returns them with ErrTruncated.
func ParseTrace(text string) (pts []geom.Point, ops []Mutation, err error) {
	pts, ops, _, err = parseTrace(text)
	return pts, ops, err
}

// ParseTraceBatches is ParseTrace with the batch structure kept: the
// mutation sequence comes back split at the recorded b markers, each
// group being one pipeline batch of the original run. Re-applying the
// groups through Session.ApplyBatch (one call per group, in order)
// reproduces the run's deferral points exactly, which is what makes the
// replay byte-identical to the recording. Ops after the final marker — a
// batch still in flight when the trace was captured — form a last
// unterminated group. Each marker's k count is validated against its
// group, so a trace whose ring buffer evicted lines (mid-stream cut) is
// rejected rather than replayed misaligned.
func ParseTraceBatches(text string) (pts []geom.Point, batches [][]Mutation, err error) {
	pts, ops, marks, err := parseTrace(text)
	if err != nil {
		return nil, nil, err
	}
	prev := 0
	for _, mk := range marks {
		if mk.end-prev != mk.k {
			return nil, nil, fmt.Errorf("serve: batch marker seq=%d claims k=%d but %d ops precede it",
				mk.seq, mk.k, mk.end-prev)
		}
		batches = append(batches, ops[prev:mk.end])
		prev = mk.end
	}
	if prev < len(ops) {
		batches = append(batches, ops[prev:])
	}
	return pts, batches, nil
}

// batchMark is a parsed b line: the op index it closes at, plus its
// recorded fields for validation.
type batchMark struct {
	end int
	seq uint64
	k   int
}

func parseTrace(text string) (pts []geom.Point, ops []Mutation, marks []batchMark, err error) {
	var truncated string
	if n := len(text); n > 0 && text[n-1] != '\n' {
		i := strings.LastIndexByte(text, '\n')
		truncated = text[i+1:]
		text = text[:i+1] // i == -1 leaves text empty: even the header is cut
	}
	lines := strings.Split(strings.TrimRight(text, "\n"), "\n")
	if len(lines) == 0 || !strings.HasPrefix(lines[0], "rimd-trace v1 ") {
		if truncated != "" {
			return nil, nil, nil, fmt.Errorf("serve: header line %q cut short: %w", truncated, ErrTruncated)
		}
		return nil, nil, nil, fmt.Errorf("serve: not a rimd-trace v1 header: %q", first(lines))
	}
	for no, line := range lines[1:] {
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		fields := strings.Fields(line)
		kv, verb, rejected, perr := parseFields(fields)
		if perr != nil {
			return nil, nil, nil, fmt.Errorf("serve: trace line %d: %w", no+2, perr)
		}
		switch {
		case fields[0] == "p":
			pts = append(pts, geom.Pt(kv["x"], kv["y"]))
		case fields[0] == "m":
			mu, merr := opFromTrace(verb, kv, rejected)
			if merr != nil {
				return nil, nil, nil, fmt.Errorf("serve: trace line %d: %w", no+2, merr)
			}
			ops = append(ops, mu)
		case fields[0] == "b":
			marks = append(marks, batchMark{end: len(ops), seq: uint64(kv["seq"]), k: int(kv["k"])})
		default:
			return nil, nil, nil, fmt.Errorf("serve: trace line %d: unknown record %q", no+2, fields[0])
		}
	}
	if truncated != "" {
		return pts, ops, marks, fmt.Errorf("serve: final line %q cut short: %w", truncated, ErrTruncated)
	}
	return pts, ops, marks, nil
}

func first(lines []string) string {
	if len(lines) == 0 {
		return ""
	}
	return lines[0]
}

// parseFields splits a trace line's tokens into key=value pairs plus the
// op verb (the first bare token after the record tag, skipping "reject").
func parseFields(fields []string) (kv map[string]float64, verb string, rejected bool, err error) {
	kv = make(map[string]float64)
	for _, tok := range fields[1:] {
		k, v, isKV := strings.Cut(tok, "=")
		if !isKV {
			if tok == "reject" {
				rejected = true
			} else if verb == "" {
				verb = tok
			}
			continue
		}
		f, perr := strconv.ParseFloat(v, 64)
		if perr != nil {
			return nil, "", false, fmt.Errorf("bad value %q: %v", tok, perr)
		}
		kv[k] = f
	}
	return kv, verb, rejected, nil
}

func opFromTrace(verb string, kv map[string]float64, rejected bool) (Mutation, error) {
	op, ok := opFromString(verb)
	if !ok {
		return Mutation{}, fmt.Errorf("unknown op %q", verb)
	}
	_ = rejected // rejection is an outcome, not an input; replays re-derive it
	mu := Mutation{Op: op, Node: int64(kv["id"])}
	switch op {
	case OpAdd, OpMove:
		mu.X, mu.Y = kv["x"], kv["y"]
	case OpSetRadius:
		mu.R = kv["r"]
	case OpAnneal:
		mu.Iters = int(kv["iters"])
		mu.Seed = int64(kv["seed"])
	}
	return mu, nil
}
