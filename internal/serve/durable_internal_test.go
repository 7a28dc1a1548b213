package serve

// White-box tests for the durability payload encodings: the WAL record
// and checkpoint formats must round-trip exactly, and the checkpoint
// decoder must reject damage instead of guessing.

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"reflect"
	"strings"
	"testing"

	"repro/internal/geom"
	"repro/internal/obs"
	"repro/internal/store"
)

// testBatch covers every op kind with floats that have no short
// decimal form, so a lossy encoding would show.
var testBatch = []Mutation{
	{Op: OpAdd, Node: 7, X: 1.25, Y: -0.5},
	{Op: OpRemove, Node: 3},
	{Op: OpMove, Node: 7, X: 0.1, Y: 0.2},
	{Op: OpSetRadius, Node: 7, R: 2.75},
	{Op: OpAnneal, Iters: 500, Seed: -42},
	{Op: OpSetRadius, Node: 1, R: 1.0 / 3},
}

// v1BatchText renders batch as earlier builds wrote a WAL batch record:
// one trace op line per mutation, then the optional "# trace" line.
func v1BatchText(batch []Mutation, traceLine string) []byte {
	var sb strings.Builder
	for _, mu := range batch {
		sb.WriteString(formatOp(mu))
		sb.WriteByte('\n')
	}
	sb.WriteString(traceLine)
	return []byte(sb.String())
}

func TestBatchPayloadRoundTrip(t *testing.T) {
	got, tc, err := parseBatchPayload(encodeBatch(nil, testBatch, nil))
	if err != nil {
		t.Fatalf("parseBatchPayload: %v", err)
	}
	if !reflect.DeepEqual(got, testBatch) || tc != nil {
		t.Fatalf("round trip\n got %+v (tc %v)\nwant %+v", got, tc, testBatch)
	}

	want := obs.TraceContext{TraceID: 0xfeedface, SpanID: 99, Flags: obs.TraceFlagSampled}
	traced := encodeBatch(nil, testBatch, &want)
	got, tc, err = parseBatchPayload(traced)
	if err != nil {
		t.Fatalf("parseBatchPayload traced: %v", err)
	}
	if !reflect.DeepEqual(got, testBatch) || tc == nil || *tc != want {
		t.Fatalf("traced round trip: tc %+v, want %+v", tc, want)
	}

	if muts, tc, err := parseBatchPayload(nil); err != nil || len(muts) != 0 || tc != nil {
		t.Fatalf("empty payload: %v %v %v", muts, tc, err)
	}
	if _, _, err := parseBatchPayload([]byte("frobnicate id=1\n")); err == nil {
		t.Fatal("unknown op accepted")
	}

	// Legacy v1 text, with and without the trace comment line, decodes
	// to the binary encoding's mutations — untraced.
	for _, traceLine := range []string{"", "# trace id=feedface span=99 flags=1\n"} {
		got, tc, err := parseBatchPayload(v1BatchText(testBatch, traceLine))
		if err != nil {
			t.Fatalf("v1 text %q: %v", traceLine, err)
		}
		if !reflect.DeepEqual(got, testBatch) || tc != nil {
			t.Fatalf("v1 text %q\n got %+v (tc %v)\nwant %+v", traceLine, got, tc, testBatch)
		}
	}

	// The binary form admits nothing after the ops but exactly one
	// trace block.
	for _, extra := range []int{1, TraceBlockSize - 1, TraceBlockSize + 1, 2 * TraceBlockSize} {
		bad := append(encodeBatch(nil, testBatch, nil), make([]byte, extra)...)
		if _, _, err := parseBatchPayload(bad); !errors.Is(err, ErrBadOps) {
			t.Errorf("%d trailing bytes: err %v, want ErrBadOps", extra, err)
		}
	}
}

// TestLegacyBatchRecordsMatchBinary feeds the same mutation log to
// fresh managers once as v1 text batch records and once as binary ones,
// through replication (ApplyRecord) and through crash recovery
// (Recover), and requires all four to end in one state.
func TestLegacyBatchRecordsMatchBinary(t *testing.T) {
	pts := []geom.Point{geom.Pt(0, 0), geom.Pt(0.5, 0), geom.Pt(1, 0.25), geom.Pt(1.5, 0.5)}
	batches := [][]Mutation{
		{Add(0.25, 0.75), SetRadius(1, 1.5)},
		{Move(4, 0.1, 0.2), Remove(0), SetRadius(2, 1.0/3)},
		{AnnealStep(50, 7)},
	}
	batches[0][0].Node = 4 // the id the leader assigned at enqueue
	tc := obs.TraceContext{TraceID: 0xabc, SpanID: 5, Flags: obs.TraceFlagSampled}
	records := func(v1 bool) []store.Record {
		recs := []store.Record{{Kind: store.RecordCreate, Session: "s", Payload: createPayload(pts, MeasureGraph)}}
		var seq uint64
		for _, b := range batches {
			seq += uint64(len(b))
			payload := encodeBatch(nil, b, &tc)
			if v1 {
				payload = v1BatchText(b, "# trace id=abc span=5 flags=1\n")
			}
			recs = append(recs, store.Record{Kind: store.RecordBatch, Session: "s", Seq: seq, Payload: payload})
		}
		return recs
	}
	state := func(m *Manager) string {
		s, ok := m.Session("s")
		if !ok {
			t.Fatal("session s missing")
		}
		if err := s.Flush(nil); err != nil {
			t.Fatalf("Flush: %v", err)
		}
		snap := s.Snapshot()
		return fmt.Sprintf("seq=%d n=%d max=%d nodes=%v edges=%v", snap.Seq, snap.N, snap.Max, snap.Nodes, snap.Edges)
	}

	got := map[string]string{}
	for _, v1 := range []bool{false, true} {
		m := NewManager(Config{Shards: 1, NoCoalesce: true})
		for _, rec := range records(v1) {
			if err := m.ApplyRecord(rec); err != nil {
				t.Fatalf("ApplyRecord (v1=%v): %v", v1, err)
			}
		}
		got[fmt.Sprintf("apply v1=%v", v1)] = state(m)
		m.Close(context.Background())

		dir := t.TempDir()
		st, err := store.Open(store.Options{Dir: dir, Sync: store.SyncNone, Registry: obs.NewRegistry()})
		if err != nil {
			t.Fatalf("store.Open: %v", err)
		}
		for _, rec := range records(v1) {
			if err := st.Append(rec); err != nil {
				t.Fatalf("Append: %v", err)
			}
		}
		if err := st.Close(); err != nil {
			t.Fatalf("store.Close: %v", err)
		}
		st, err = store.Open(store.Options{Dir: dir, Sync: store.SyncNone, Registry: obs.NewRegistry()})
		if err != nil {
			t.Fatalf("store.Open: %v", err)
		}
		m = NewManager(Config{Shards: 1, Store: st})
		if rs, err := m.Recover(true); err != nil || rs.ReplayedBatches != len(batches) {
			t.Fatalf("Recover (v1=%v): %+v %v", v1, rs, err)
		}
		got[fmt.Sprintf("recover v1=%v", v1)] = state(m)
		m.Close(context.Background())
		st.Close()
	}
	want := got["apply v1=false"]
	for k, v := range got {
		if v != want {
			t.Errorf("%s diverges\n got %s\nwant %s", k, v, want)
		}
	}
}

// FuzzBatchPayload throws arbitrary bytes at the one WAL batch decoder
// that recovery and replication share. The invariants: no panic, and a
// payload that decodes as binary re-encodes to exactly its own bytes.
func FuzzBatchPayload(f *testing.F) {
	tc := obs.TraceContext{TraceID: 1, SpanID: 2, Flags: obs.TraceFlagSampled}
	f.Add(v1BatchText(testBatch, "# trace id=1 span=2 flags=1\n"))
	f.Add(encodeBatch(nil, testBatch, nil))
	f.Add(encodeBatch(nil, testBatch, &tc))
	f.Add([]byte{batchBinary, 0xff, 0xff, 0xff, 0x7f}) // count word far past the bytes
	f.Fuzz(func(t *testing.T, payload []byte) {
		muts, tc, err := parseBatchPayload(payload)
		if err != nil || len(payload) == 0 || payload[0] != batchBinary {
			return
		}
		if again := encodeBatch(nil, muts, tc); !bytes.Equal(again, payload) {
			t.Fatalf("binary payload does not re-encode:\n in  %x\n out %x", payload, again)
		}
	})
}

func TestCreatePayloadRoundTrip(t *testing.T) {
	pts := []geom.Point{geom.Pt(0, 0), geom.Pt(1.5, -2.25), geom.Pt(0.3333333333333333, 7)}
	got, measure, err := parseCreatePayload(createPayload(pts, MeasureGraph))
	if err != nil {
		t.Fatalf("parseCreatePayload: %v", err)
	}
	if !reflect.DeepEqual(got, pts) {
		t.Fatalf("round trip\n got %v\nwant %v", got, pts)
	}
	if measure != MeasureGraph {
		t.Fatalf("graph payload decoded as measure %q", measure)
	}
	// Graph payloads must stay byte-identical to the pre-measure format:
	// no measure token in the header line.
	if bytes.Contains(createPayload(pts, MeasureGraph), []byte("measure")) {
		t.Fatal("graph create payload grew a measure token")
	}
	got2, measure2, err := parseCreatePayload(createPayload(pts, MeasureSinr))
	if err != nil {
		t.Fatalf("parseCreatePayload sinr: %v", err)
	}
	if !reflect.DeepEqual(got2, pts) || measure2 != MeasureSinr {
		t.Fatalf("sinr round trip: measure %q", measure2)
	}
	if _, _, err := parseCreatePayload([]byte("rimd-trace v1 n=0\nm seq=1 remove id=0 n=0 max=0\n")); err == nil {
		t.Fatal("create payload with mutation lines accepted")
	}
}

// TestReplicatedCreateCarriesMeasure pins the replication path: a
// follower applying a leader's create record must build the session
// under the leader's measure, and redelivery stays an idempotent skip.
func TestReplicatedCreateCarriesMeasure(t *testing.T) {
	m := NewManager(Config{Shards: 1, NoCoalesce: true})
	defer m.Close(context.Background())
	rec := store.Record{
		Kind:    store.RecordCreate,
		Session: "r1",
		Payload: createPayload([]geom.Point{geom.Pt(0, 0), geom.Pt(1, 0)}, MeasureSinr),
	}
	if err := m.ApplyRecord(rec); err != nil {
		t.Fatalf("ApplyRecord: %v", err)
	}
	s, ok := m.Session("r1")
	if !ok {
		t.Fatal("replicated session missing")
	}
	if s.Measure() != MeasureSinr {
		t.Fatalf("replicated Measure()=%q, want sinr", s.Measure())
	}
	if err := m.ApplyRecord(rec); err != nil {
		t.Fatalf("redelivered create: %v", err)
	}
}

func TestCheckpointPayloadRoundTrip(t *testing.T) {
	m := NewManager(Config{Shards: 1})
	defer m.Close(context.Background())
	pts := []geom.Point{geom.Pt(0, 0), geom.Pt(0.5, 0), geom.Pt(1, 0.25)}
	s, err := m.CreateSession("ck", pts)
	if err != nil {
		t.Fatalf("CreateSession: %v", err)
	}
	if _, err := s.Apply(Add(0.25, 0.75), SetRadius(1, 1.5), Remove(0)); err != nil {
		t.Fatalf("Apply: %v", err)
	}
	if err := s.Flush(nil); err != nil {
		t.Fatalf("Flush: %v", err)
	}

	// The owner is quiescent after Flush, so the capture is safe here —
	// the same reasoning CloseStats relies on.
	seq, payload := s.encodeCheckpoint()
	if seq != 3 {
		t.Fatalf("seq=%d, want 3", seq)
	}
	st, err := decodeCheckpoint(payload)
	if err != nil {
		t.Fatalf("decodeCheckpoint: %v", err)
	}
	if st.seq != s.seq || st.nextID != s.loadNextID() {
		t.Fatalf("decoded seq=%d next=%d, want %d %d", st.seq, st.nextID, s.seq, s.loadNextID())
	}
	if !reflect.DeepEqual(st.idOf, s.idOf) {
		t.Fatalf("decoded idOf=%v, want %v", st.idOf, s.idOf)
	}
	snap := s.mt.Snapshot()
	if !reflect.DeepEqual(st.rs.Points, snap.Points) || !reflect.DeepEqual(st.rs.Radii, snap.Radii) {
		t.Fatalf("decoded geometry diverges:\n%v %v\nvs\n%v %v", st.rs.Points, st.rs.Radii, snap.Points, snap.Radii)
	}
	if !reflect.DeepEqual(st.rs.Edges, snap.Edges) {
		t.Fatalf("decoded edges diverge:\n%v\nvs\n%v", st.rs.Edges, snap.Edges)
	}

	// Re-encoding the decoded state through a restored session must be
	// byte-identical — the stability the recovery path depends on.
	s2, err := m.restoreSession("ck2", st)
	if err != nil {
		t.Fatalf("restoreSession: %v", err)
	}
	_, payload2 := s2.encodeCheckpoint()
	if string(payload2) != string(payload) {
		t.Fatalf("checkpoint not byte-stable:\n%s\nvs\n%s", payload2, payload)
	}
}

func TestDecodeCheckpointRejectsDamage(t *testing.T) {
	good := "rimsess v1 seq=2 next=3 baseline=1 events=2 rebuilds=0 n=2 m=1\n" +
		"p id=0 x=0 y=0 r=1\np id=1 x=1 y=0 r=1\ne u=0 v=1 w=1\n"
	if _, err := decodeCheckpoint([]byte(good)); err != nil {
		t.Fatalf("good payload rejected: %v", err)
	}
	for name, bad := range map[string]string{
		"wrong magic":    strings.Replace(good, "rimsess v1", "rimsess v2", 1),
		"missing body":   strings.Split(good, "\n")[0] + "\n",
		"extra body":     good + "e u=0 v=1 w=2\n",
		"bad seq":        strings.Replace(good, "seq=2", "seq=x", 1),
		"unknown header": strings.Replace(good, "next=3", "nxt=3", 1),
		"bad point line": strings.Replace(good, "p id=1", "q id=1", 1),
		"bad float":      strings.Replace(good, "w=1", "w=one", 1),
	} {
		if _, err := decodeCheckpoint([]byte(bad)); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}
