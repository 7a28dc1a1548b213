package main

// The benchmark's own tracing. Everything here sits outside the program
// under test, at seams the packages already export:
//
//   - serve.Config.BeforeBatch/AfterBatch/AfterBatchDelta (batch spans,
//     subscription-match spans),
//   - the core.Measure factory seam (a delegating engine wrapper; no
//     production code type-asserts the engine, so it is transparent),
//   - store.Options.FS (WAL write and fsync timing),
//   - net.Listener / net.Conn wrappers (wire and repl byte counts).
//
// Spans stay in memory and are written out when the run ends. A span has
// a name, start, end, parent and the op or batch it belongs to (Ref: the
// session sequence a batch ends at, or an op's issue index). Fine-grained
// engine and WAL calls are not one span each: their time is summed into
// one child span per batch (Start is the first call, End is Start plus
// the summed time), which keeps tracing overhead bounded while still
// letting self time be computed as duration minus children.

import (
	"bufio"
	"encoding/json"
	"net"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/dynamic"
	"repro/internal/geom"
	"repro/internal/serve"
	"repro/internal/store"
)

// span is one recorded interval, in nanoseconds since the tracer's base.
type span struct {
	ID     uint64 `json:"id"`
	Parent uint64 `json:"parent,omitempty"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Ref    uint64 `json:"ref,omitempty"`
}

func (s span) dur() int64 { return s.End - s.Start }

// tracer is the in-memory span recorder. on gates every seam, so a traced
// run can alternate traced and untraced stretches to measure the
// recorder's own overhead.
type tracer struct {
	on   atomic.Bool
	base time.Time
	ids  atomic.Uint64

	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{base: time.Now()} }

// now is the tracer clock.
func (t *tracer) now() int64 { return int64(time.Since(t.base)) }

// add records a span and returns its id.
func (t *tracer) add(s span) uint64 {
	if s.ID == 0 {
		s.ID = t.ids.Add(1)
	}
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
	return s.ID
}

// snapshot copies the recorded spans.
func (t *tracer) snapshot() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}

// writeTo dumps the spans as JSON lines.
func (t *tracer) writeTo(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range t.snapshot() {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// writeSpans dumps a traced run's spans.
func writeSpans(rep *report, t *tracer, opts options) {
	n := len(t.snapshot())
	if err := t.writeTo(opts.spans); err != nil {
		rep.fail("trace: write spans: %v", err)
		return
	}
	rep.note("trace: %d spans written to %s", n, opts.spans)
}

// selfTimes sums each span name's self time: its duration minus the part
// of it its children cover (children are summed; the recorder's children
// never overlap one another).
func selfTimes(spans []span) map[string]int64 {
	child := map[uint64]int64{}
	for _, s := range spans {
		if s.Parent != 0 {
			child[s.Parent] += s.dur()
		}
	}
	out := map[string]int64{}
	for _, s := range spans {
		self := s.dur() - child[s.ID]
		if self < 0 {
			self = 0
		}
		out[s.Name] += self
	}
	return out
}

// --- engine seam --------------------------------------------------------------

// measureStats aggregates one measure layer (core or phys) across every
// engine the factory built.
type measureStats struct {
	calls     atomic.Int64 // every method call while tracing is on
	timed     atomic.Int64 // the calls among them that change state (timed)
	timedNS   atomic.Int64
	setRadius atomic.Int64
	setNS     atomic.Int64
	moves     atomic.Int64
	moveNS    atomic.Int64
	builds    atomic.Int64 // factory calls
	buildNS   atomic.Int64
}

// busyNS is the measure's timed work: engine builds plus timed calls.
func (st *measureStats) busyNS() int64 { return st.buildNS.Load() + st.timedNS.Load() }

// tracedFactory wraps a measure factory: every engine it builds is a
// delegating wrapper charging its time to st and, when the engine serves
// a session, to the open batch of node.
func tracedFactory(t *tracer, f core.MeasureFactory, st *measureStats, nd *node) core.MeasureFactory {
	return func(pts []geom.Point) core.Measure {
		if !t.on.Load() {
			return &tracedMeasure{inner: f(pts), t: t, st: st, nd: nd}
		}
		t0 := time.Now()
		inner := f(pts)
		d := time.Since(t0)
		st.builds.Add(1)
		st.buildNS.Add(int64(d))
		if nd != nil {
			nd.rebuilt(d)
		}
		return &tracedMeasure{inner: inner, t: t, st: st, nd: nd}
	}
}

// tracedMeasure delegates every core.Measure method. Reads are counted;
// state changes are also timed.
type tracedMeasure struct {
	inner core.Measure
	t     *tracer
	st    *measureStats
	nd    *node
}

var _ core.Measure = (*tracedMeasure)(nil)

// count counts a read while tracing is on.
func (m *tracedMeasure) count() {
	if m.t.on.Load() {
		m.st.calls.Add(1)
	}
}

// timedCall runs fn, counting and timing it while tracing is on.
func (m *tracedMeasure) timedCall(kind int, fn func()) {
	if !m.t.on.Load() {
		fn()
		return
	}
	m.st.calls.Add(1)
	t0 := time.Now()
	fn()
	d := int64(time.Since(t0))
	m.st.timed.Add(1)
	m.st.timedNS.Add(d)
	switch kind {
	case kindSetRadius:
		m.st.setRadius.Add(1)
		m.st.setNS.Add(d)
	case kindMove:
		m.st.moves.Add(1)
		m.st.moveNS.Add(d)
	}
	if m.nd != nil {
		m.nd.engineTime(d)
	}
}

const (
	kindOther = iota
	kindSetRadius
	kindMove
)

func (m *tracedMeasure) N() int               { m.count(); return m.inner.N() }
func (m *tracedMeasure) Points() []geom.Point { m.count(); return m.inner.Points() }
func (m *tracedMeasure) Grid() *geom.Grid     { m.count(); return m.inner.Grid() }
func (m *tracedMeasure) Max() int             { m.count(); return m.inner.Max() }
func (m *tracedMeasure) SumI() int            { m.count(); return m.inner.SumI() }
func (m *tracedMeasure) Radius(u int) float64 { m.count(); return m.inner.Radius(u) }
func (m *tracedMeasure) I(v int) int          { m.count(); return m.inner.I(v) }
func (m *tracedMeasure) Snapshot()            { m.timedCall(kindOther, m.inner.Snapshot) }
func (m *tracedMeasure) Restore()             { m.timedCall(kindOther, m.inner.Restore) }
func (m *tracedMeasure) RemovePoint(idx int) {
	m.timedCall(kindOther, func() { m.inner.RemovePoint(idx) })
}
func (m *tracedMeasure) MovePoint(i int, p geom.Point) {
	m.timedCall(kindMove, func() { m.inner.MovePoint(i, p) })
}
func (m *tracedMeasure) ExportState(dst *core.State) *core.State {
	m.count()
	return m.inner.ExportState(dst)
}
func (m *tracedMeasure) SetRadius(u int, r float64) (old float64) {
	m.timedCall(kindSetRadius, func() { old = m.inner.SetRadius(u, r) })
	return old
}
func (m *tracedMeasure) GrowTo(u int, r float64) (old float64) {
	m.timedCall(kindSetRadius, func() { old = m.inner.GrowTo(u, r) })
	return old
}
func (m *tracedMeasure) AddPoint(p geom.Point) (idx int) {
	m.timedCall(kindOther, func() { idx = m.inner.AddPoint(p) })
	return idx
}
func (m *tracedMeasure) BatchSet(radii []float64, workers int) {
	m.timedCall(kindOther, func() { m.inner.BatchSet(radii, workers) })
}

// --- batch seam -----------------------------------------------------------------

// openBatch accumulates the children of the batch the owner goroutine is
// applying. Children can be charged from other goroutines (a create
// record's WAL append runs on the caller), hence the atomics.
type openBatch struct {
	id       uint64
	start    int64
	storeNS  atomic.Int64
	writes   atomic.Int64
	engineNS atomic.Int64
	rebuilds atomic.Int64
	firstSt  atomic.Int64 // start of the first WAL write (0 = none)
	firstEn  atomic.Int64 // start of the first engine call
}

// batchRec is one closed batch.
type batchRec struct {
	id                uint64
	start, end        int64
	seq               uint64 // session sequence after the batch
	storeNS, engineNS int64
	writes            int64
	rebuild           bool // an engine factory ran inside the batch
	churn             bool // the engine's node count changed
}

// subRec is one subscription-match pass.
type subRec struct {
	seq        uint64
	start, end int64
	work       bool // the delta was non-empty
}

// node is the batch recorder of one serve.Manager ("leader", "follower",
// "live"). The hooks run on the session owner goroutine.
type node struct {
	t    *tracer
	name string
	mgr  *serve.Manager

	cur   atomic.Pointer[openBatch]
	lastN atomic.Int64 // engine size after the previous batch

	mu      sync.Mutex
	batches []batchRec
	subs    []subRec
}

func newNode(t *tracer, name string) *node { return &node{t: t, name: name} }

// before is the BeforeBatch hook.
func (n *node) before(string) {
	if !n.t.on.Load() {
		return
	}
	n.cur.Store(&openBatch{id: n.t.ids.Add(1), start: n.t.now()})
}

// after is the AfterBatch hook: it closes the batch span and records its
// children as aggregated child spans. The engine size is tracked across
// untraced batches too, so churn is judged against the previous batch.
func (n *node) after(sessionID string, eng dynamic.Engine) {
	en := int64(eng.N())
	prevN := n.lastN.Swap(en)
	b := n.cur.Swap(nil)
	if b == nil {
		return
	}
	end := n.t.now()
	var seq uint64
	if s, ok := n.mgr.Session(sessionID); ok {
		seq = s.Head().Seq
	}
	rec := batchRec{
		id: b.id, start: b.start, end: end, seq: seq,
		storeNS: b.storeNS.Load(), engineNS: b.engineNS.Load(), writes: b.writes.Load(),
		rebuild: b.rebuilds.Load() > 0, churn: prevN != 0 && prevN != en,
	}
	n.t.add(span{ID: b.id, Name: n.name + ".serve.batch", Start: b.start, End: end, Ref: seq})
	if rec.storeNS > 0 {
		st := b.firstSt.Load()
		n.t.add(span{Parent: b.id, Name: n.name + ".store.write", Start: st, End: st + rec.storeNS, Ref: seq})
	}
	if rec.engineNS > 0 {
		st := b.firstEn.Load()
		n.t.add(span{Parent: b.id, Name: n.name + ".core.apply", Start: st, End: st + rec.engineNS, Ref: seq})
	}
	n.mu.Lock()
	n.batches = append(n.batches, rec)
	n.mu.Unlock()
}

// storeTime charges a WAL write to the open batch.
func (n *node) storeTime(start time.Time, d time.Duration) {
	if b := n.cur.Load(); b != nil {
		b.firstSt.CompareAndSwap(0, int64(start.Sub(n.t.base)))
		b.storeNS.Add(int64(d))
		b.writes.Add(1)
	}
}

// engineTime charges an engine call to the open batch.
func (n *node) engineTime(d int64) {
	if b := n.cur.Load(); b != nil {
		b.firstEn.CompareAndSwap(0, n.t.now()-d)
		b.engineNS.Add(d)
	}
}

// rebuilt marks an engine construction inside the open batch.
func (n *node) rebuilt(d time.Duration) {
	if b := n.cur.Load(); b != nil {
		b.rebuilds.Add(1)
		end := n.t.now()
		n.t.add(span{Parent: b.id, Name: n.name + ".dynamic.rebuild", Start: end - int64(d), End: end})
	}
}

// subHook wraps an AfterBatchDelta consumer with a match span.
func (n *node) subHook(fn func(serve.BatchView)) func(serve.BatchView) {
	return func(v serve.BatchView) {
		if !n.t.on.Load() {
			fn(v)
			return
		}
		st := n.t.now()
		fn(v)
		end := n.t.now()
		work := !v.Delta.Empty()
		n.t.add(span{Name: n.name + ".sub.match", Start: st, End: end, Ref: v.Seq})
		n.mu.Lock()
		n.subs = append(n.subs, subRec{seq: v.Seq, start: st, end: end, work: work})
		n.mu.Unlock()
	}
}

// records copies the closed batches and match passes.
func (n *node) records() ([]batchRec, []subRec) {
	n.mu.Lock()
	defer n.mu.Unlock()
	return append([]batchRec(nil), n.batches...), append([]subRec(nil), n.subs...)
}

// --- store seam ---------------------------------------------------------------

// fsStats is what the FS wrapper saw.
type fsStats struct {
	bytes   atomic.Int64
	writes  atomic.Int64
	writeNS atomic.Int64

	mu     sync.Mutex
	fsyncs []float64 // fsync durations, ms
}

// tracedFS wraps the real filesystem: writes are timed and charged to the
// node's open batch, fsyncs (the WAL's background syncer under
// fsync=batch) are timed on their own.
type tracedFS struct {
	store.OSFS
	t  *tracer
	st *fsStats
	nd *node
}

func (f *tracedFS) OpenFile(name string, flag int, perm os.FileMode) (store.File, error) {
	h, err := f.OSFS.OpenFile(name, flag, perm)
	if err != nil {
		return nil, err
	}
	return &tracedFile{File: h, fs: f}, nil
}

type tracedFile struct {
	store.File
	fs *tracedFS
}

func (f *tracedFile) Write(p []byte) (int, error) {
	if !f.fs.t.on.Load() {
		return f.File.Write(p)
	}
	t0 := time.Now()
	n, err := f.File.Write(p)
	d := time.Since(t0)
	f.fs.st.bytes.Add(int64(n))
	f.fs.st.writes.Add(1)
	f.fs.st.writeNS.Add(int64(d))
	f.fs.nd.storeTime(t0, d)
	return n, err
}

func (f *tracedFile) Sync() error {
	if !f.fs.t.on.Load() {
		return f.File.Sync()
	}
	st := f.fs.t.now()
	err := f.File.Sync()
	end := f.fs.t.now()
	f.fs.t.add(span{Name: f.fs.nd.name + ".store.fsync", Start: st, End: end})
	f.fs.st.mu.Lock()
	f.fs.st.fsyncs = append(f.fs.st.fsyncs, float64(end-st)/1e6)
	f.fs.st.mu.Unlock()
	return err
}

// --- network seam -------------------------------------------------------------

// byteCount is the traffic one side of a socket wrapper saw.
type byteCount struct {
	in, out atomic.Int64
	on      *atomic.Bool
}

// countingConn counts bytes read and written while tracing is on.
type countingConn struct {
	net.Conn
	bc *byteCount
}

func (c *countingConn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	if c.bc.on.Load() {
		c.bc.in.Add(int64(n))
	}
	return n, err
}

func (c *countingConn) Write(p []byte) (int, error) {
	n, err := c.Conn.Write(p)
	if c.bc.on.Load() {
		c.bc.out.Add(int64(n))
	}
	return n, err
}

// countingListener wraps every accepted connection in a countingConn.
type countingListener struct {
	net.Listener
	bc *byteCount
}

func (l *countingListener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	return &countingConn{Conn: c, bc: l.bc}, nil
}
