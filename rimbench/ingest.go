package main

import (
	"context"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/gen"
	"repro/internal/geom"
	"repro/internal/repl"
	"repro/internal/serve"
	"repro/internal/store"
	"repro/internal/wire"
)

// ingest: closed loop, fixed work. An in-process leader (serve + store
// WAL at fsync=batch + wire front door + repl leader) and one follower
// (repl follower → its own serve + store). Two pipelined client
// connections keep a fixed window of single-op SetRadius/Move frames in
// flight; a round is N acked mutations, then Flush, then the follower
// catching up to the leader's sequence. p50_ms is the median round time
// and an op is one mutation acked by the leader and applied by the
// follower. After the rounds the run takes a checkpoint, runs one more
// round, and boots a crash image of the leader's data directory with
// Recover(true), as rimd does.

const ingestSession = "ingest"

// ingestEnv is one booted cluster.
type ingestEnv struct {
	tmp        string
	t          *tracer
	lnode      *node
	fnode      *node
	lfs, ffs   fsStats
	lcore      measureStats
	fcore      measureStats
	wireBytes  byteCount
	replBytes  byteCount
	lst, fst   *store.Store
	lmgr, fmgr *serve.Manager
	wsrv       *wire.Server
	ldr        *repl.Leader
	fol        *repl.Follower
	client     *wire.Client
	lsess      *serve.Session
	pts        []geom.Point // the client's view of node positions
	applied    *progress    // leader
	caught     *progress    // follower
	perm       []int        // node visiting order (see mutations)
	next       int
	wg         sync.WaitGroup
	folErr     atomic.Pointer[error]
}

// progress follows one manager's session sequence from its AfterBatch
// hook, which runs on the session owner goroutine after every batch.
// The dispatcher waits on it to keep its window of unapplied mutations
// bounded, and the round waits on the follower's to see it catch up.
type progress struct {
	sess atomic.Pointer[serve.Session]
	kick chan struct{} // capacity 1: one pending wake-up is enough
}

func newProgress() *progress { return &progress{kick: make(chan struct{}, 1)} }

// after is called after every batch.
func (p *progress) after() {
	select {
	case p.kick <- struct{}{}:
	default:
	}
}

// seq is the session's applied sequence.
func (p *progress) seq() uint64 {
	if s := p.sess.Load(); s != nil {
		return s.Head().Seq
	}
	return 0
}

// waitFor blocks until the sequence reaches target.
func (p *progress) waitFor(target uint64, timeout time.Duration) error {
	timer := time.NewTimer(timeout)
	defer timer.Stop()
	for p.seq() < target {
		select {
		case <-p.kick:
		case <-timer.C:
			return fmt.Errorf("sequence %d not reached within %s (at %d)", target, timeout, p.seq())
		}
	}
	return nil
}

// bootIngest boots the leader, the follower and the client, creates the
// session on the instance drawn from seed and warms it up.
func bootIngest(opts options, seed int64) (*ingestEnv, error) {
	sz, traced := opts.size, opts.trace
	e := &ingestEnv{t: newTracer(), applied: newProgress(), caught: newProgress()}
	e.wireBytes.on, e.replBytes.on = &e.t.on, &e.t.on
	e.lnode, e.fnode = newNode(e.t, "leader"), newNode(e.t, "follower")
	if err := os.MkdirAll(opts.tmp, 0o755); err != nil {
		return nil, err
	}
	tmp, err := os.MkdirTemp(opts.tmp, "ingest-")
	if err != nil {
		return nil, err
	}
	e.tmp = tmp
	fail := func(err error) (*ingestEnv, error) {
		e.close()
		return nil, err
	}

	lopts := store.Options{Dir: filepath.Join(tmp, "leader"), Sync: store.SyncBatch}
	fopts := store.Options{Dir: filepath.Join(tmp, "follower"), Sync: store.SyncBatch}
	lcfg := serve.Config{QueueCap: 1024, BatchCap: 256}
	fcfg := serve.Config{QueueCap: 1024, BatchCap: 256, NoCoalesce: true}
	lcfg.AfterBatch = func(string, core.Measure) { e.applied.after() }
	fcfg.AfterBatch = func(string, core.Measure) { e.caught.after() }
	if traced {
		lopts.FS = &tracedFS{t: e.t, st: &e.lfs, nd: e.lnode}
		fopts.FS = &tracedFS{t: e.t, st: &e.ffs, nd: e.fnode}
		lcfg.Engine = tracedFactory(e.t, core.GraphMeasure, &e.lcore, e.lnode)
		fcfg.Engine = tracedFactory(e.t, core.GraphMeasure, &e.fcore, e.fnode)
		lcfg.BeforeBatch = e.lnode.before
		lcfg.AfterBatch = func(id string, eng core.Measure) {
			e.lnode.after(id, eng)
			e.applied.after()
		}
		fcfg.BeforeBatch = e.fnode.before
		fcfg.AfterBatch = func(id string, eng core.Measure) {
			e.fnode.after(id, eng)
			e.caught.after()
		}
	}
	if e.lst, err = store.Open(lopts); err != nil {
		return fail(fmt.Errorf("open leader store: %w", err))
	}
	lcfg.Store = e.lst
	e.lmgr = serve.NewManager(lcfg)
	e.lnode.mgr = e.lmgr
	if _, err := e.lmgr.Recover(true); err != nil {
		return fail(fmt.Errorf("leader recover: %w", err))
	}
	if e.fst, err = store.Open(fopts); err != nil {
		return fail(fmt.Errorf("open follower store: %w", err))
	}
	fcfg.Store = e.fst
	e.fmgr = serve.NewManager(fcfg)
	e.fnode.mgr = e.fmgr
	if _, err := e.fmgr.Recover(true); err != nil {
		return fail(fmt.Errorf("follower recover: %w", err))
	}

	wln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return fail(err)
	}
	e.wsrv = wire.NewServer(wire.ServerConfig{Manager: e.lmgr})
	var wl net.Listener = wln
	if traced {
		wl = &countingListener{Listener: wln, bc: &e.wireBytes}
	}
	e.serve(func() { e.wsrv.Serve(wl) })

	rln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return fail(err)
	}
	e.ldr = repl.NewLeader(repl.LeaderConfig{Store: e.lst, NodeID: "leader", Epoch: 1})
	e.serve(func() { e.ldr.Serve(rln) })
	fc := repl.FollowerConfig{
		Manager: e.fmgr, NodeID: "follower", LeaderAddr: rln.Addr().String(), Epoch: 1,
		CursorPath: filepath.Join(tmp, "follower", "repl.cursor"),
	}
	if traced {
		fc.Dial = func(addr string) (net.Conn, error) {
			c, err := net.Dial("tcp", addr)
			if err != nil {
				return nil, err
			}
			return &countingConn{Conn: c, bc: &e.replBytes}, nil
		}
	}
	if e.fol, err = repl.NewFollower(fc); err != nil {
		return fail(err)
	}
	e.serve(func() {
		if err := e.fol.Run(); err != nil {
			e.folErr.Store(&err)
		}
	})

	if e.client, err = wire.Dial(wire.ClientConfig{Addr: wln.Addr().String(), Conns: 2}); err != nil {
		return fail(err)
	}
	rng := rand.New(rand.NewSource(seed))
	e.pts = gen.UniformSquare(rng, sz.ingestN, sz.ingestSide)
	if _, err := e.client.Create(ingestSession, e.pts); err != nil {
		return fail(fmt.Errorf("create: %w", err))
	}
	var ok bool
	if e.lsess, ok = e.lmgr.Session(ingestSession); !ok {
		return fail(errors.New("leader lost the session"))
	}
	e.applied.sess.Store(e.lsess)
	deadline := time.Now().Add(30 * time.Second)
	for {
		if s, ok := e.fmgr.Session(ingestSession); ok {
			e.caught.sess.Store(s)
			break
		}
		if time.Now().After(deadline) {
			return fail(errors.New("follower never created the session"))
		}
		time.Sleep(time.Millisecond)
	}
	e.perm = rng.Perm(len(e.pts))
	warm := e.mutations(rng, sz.ingestWarm, sz.ingestSide)
	if r := e.round(warm, sz.ingestWindow); r.err != nil {
		return fail(fmt.Errorf("warm-up: %w", r.err))
	}
	return e, nil
}

// serve runs fn on a goroutine the env waits for at close.
func (e *ingestEnv) serve(fn func()) {
	e.wg.Add(1)
	go func() {
		defer e.wg.Done()
		fn()
	}()
}

// close tears the cluster down and waits for every goroutine it started.
func (e *ingestEnv) close() {
	if e.client != nil {
		e.client.Close()
	}
	if e.fol != nil {
		e.fol.Stop()
	}
	if e.ldr != nil {
		e.ldr.Close()
	}
	if e.wsrv != nil {
		e.wsrv.Close()
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if e.lmgr != nil {
		e.lmgr.Close(ctx)
	}
	if e.fmgr != nil {
		e.fmgr.Close(ctx)
	}
	e.wg.Wait()
	if e.lst != nil {
		e.lst.Close()
	}
	if e.fst != nil {
		e.fst.Close()
	}
	os.RemoveAll(e.tmp)
}

// mutations draws the next n mutations: half radius changes, half
// short moves. Targets walk a fixed random permutation of the nodes, so a
// node recurs only every len(pts) mutations — far more than a batch — and
// batch coalescing never applies: every acked mutation advances the
// session sequence, which is what the dispatcher's window counts.
func (e *ingestEnv) mutations(rng *rand.Rand, n int, side float64) []serve.Mutation {
	muts := make([]serve.Mutation, n)
	clamp := func(v float64) float64 { return min(max(v, 0), side) }
	for i := range muts {
		id := e.perm[e.next%len(e.perm)]
		e.next++
		if rng.Intn(2) == 0 {
			muts[i] = serve.SetRadius(int64(id), 0.5+rng.Float64())
			continue
		}
		p := e.pts[id]
		p = geom.Pt(clamp(p.X+rng.Float64()-0.5), clamp(p.Y+rng.Float64()-0.5))
		e.pts[id] = p
		muts[i] = serve.Move(int64(id), p.X, p.Y)
	}
	return muts
}

// roundResult is one closed-loop round.
type roundResult struct {
	acked, failed int64
	wall          time.Duration // first send → follower caught up
	catchup       time.Duration // Flush returned → follower caught up
	seqFrom       uint64        // leader sequence before and after
	seqTo         uint64
	submitNS      int64 // time inside GoMutate (traced rounds)
	start, end    int64 // tracer clock
	err           error
}

// round sends muts over the client's two connections with one
// dispatcher (this goroutine) and one collector. The window bounds the
// mutations sent but not yet applied by the leader: the wire protocol
// acks at enqueue, so a window on acks alone would overrun the session
// queue and turn the round into a backpressure test.
func (e *ingestEnv) round(muts []serve.Mutation, window int) roundResult {
	var r roundResult
	r.seqFrom = e.applied.seq()
	traced := e.t.on.Load()
	inflight := make(chan *wire.Pending, window)
	done := make(chan struct{})
	var firstErr error
	go func() {
		defer close(done)
		var ids []int64
		for p := range inflight {
			var err error
			if ids, err = p.MutateIDs(ids[:0]); err != nil {
				r.failed++
				if firstErr == nil {
					firstErr = err
				}
			} else {
				r.acked++
			}
		}
	}()
	r.start = e.t.now()
	t0 := time.Now()
	for i := range muts {
		if i >= window {
			if err := e.applied.waitFor(r.seqFrom+uint64(i+1-window), 60*time.Second); err != nil {
				r.err = err
				break
			}
		}
		if traced {
			a := time.Now()
			p := e.client.GoMutate(ingestSession, muts[i:i+1])
			r.submitNS += int64(time.Since(a))
			inflight <- p
			continue
		}
		inflight <- e.client.GoMutate(ingestSession, muts[i:i+1])
	}
	close(inflight)
	<-done
	seq, err := e.client.Flush(ingestSession)
	if err != nil {
		r.err = fmt.Errorf("flush: %w", err)
		return r
	}
	tFlush := time.Now()
	if err := e.caught.waitFor(seq, 60*time.Second); err != nil {
		r.err = err
		return r
	}
	r.wall = time.Since(t0)
	r.catchup = time.Since(tFlush)
	r.end = e.t.now()
	if traced {
		id := e.t.add(span{Name: "ingest.round", Start: r.start, End: r.end, Ref: seq})
		e.t.add(span{Parent: id, Name: "repl.catchup", Start: r.end - int64(r.catchup), End: r.end, Ref: seq})
	}
	r.seqTo = seq
	if r.failed > 0 && r.err == nil {
		r.err = fmt.Errorf("%d of %d mutations failed, first: %w", r.failed, len(muts), firstErr)
	}
	return r
}

// runIngest boots the cluster ingestBoots times and measures an equal
// share of the window on each boot, pooling the rounds: each boot's
// state depends on batch boundaries the closed loop cannot repeat
// exactly, so several boots average out where one happens to settle.
// The last boot runs rounds until there are enough for the median and
// also takes the crash image. setup_s is the median boot; boots that are
// only timed, each on an instance of its own, come first and make up the
// count.
func runIngest(opts options) *report {
	rep := newReport()
	zeroLayers(rep)
	sz := opts.size
	window := time.Duration(opts.seconds / float64(sz.ingestBoots) * float64(time.Second))
	rng := rand.New(rand.NewSource(opts.seed + 1))
	var (
		setups               []float64
		plain, traced, lastT []roundResult
		plainCPU, trCPU      time.Duration
		env                  *ingestEnv
	)
	for k := sz.ingestBoots; k < sz.samples; k++ {
		t0 := time.Now()
		e, err := bootIngest(opts, bootSeed(opts.seed, k))
		if err != nil {
			rep.fail("ingest: set-up: %v", err)
			rep.attempted++
			rep.failed++
			return rep
		}
		setups = append(setups, time.Since(t0).Seconds())
		e.close()
	}
	ms0 := memNow()
	for k := 0; k < sz.ingestBoots; k++ {
		t0 := time.Now()
		e, err := bootIngest(opts, bootSeed(opts.seed, k))
		if err != nil {
			rep.fail("ingest: set-up: %v", err)
			rep.attempted++
			rep.failed++
			return rep
		}
		setups = append(setups, time.Since(t0).Seconds())
		// Fixed-work rounds until this boot's share of the window is
		// spent; a traced run alternates untraced and traced rounds.
		lastT = lastT[:0]
		start := time.Now()
		ok := true
		// The last boot goes on until the run holds enough untraced rounds
		// for the median; in a traced run it must hold enough traced rounds
		// itself, since its recorders give the batch, store and repl figures.
		short := func() bool {
			return k == sz.ingestBoots-1 && (len(plain) < sz.samples || opts.trace && len(lastT) < sz.samples)
		}
		for i := 0; i < 2 || time.Since(start) < window || short(); i++ {
			muts := e.mutations(rng, sz.ingestRound, sz.ingestSide)
			tr := opts.trace && i%2 == 1
			e.t.on.Store(tr)
			c0 := cpuNow()
			r := e.round(muts, sz.ingestWindow)
			c := cpuNow() - c0
			rep.attempted += int64(len(muts))
			rep.failed += int64(len(muts)) - r.acked
			if r.err != nil {
				rep.fail("ingest: boot %d round %d: %v", k, i, r.err)
				ok = false
				break
			}
			if tr {
				traced, trCPU = append(traced, r), trCPU+c
				lastT = append(lastT, r)
			} else {
				plain, plainCPU = append(plain, r), plainCPU+c
			}
		}
		e.t.on.Store(false)
		if !ok || k == sz.ingestBoots-1 {
			env = e
			break
		}
		checkFollower(rep, e, false)
		e.close()
	}
	ms1 := memNow()
	defer env.close()
	rep.e2e["setup_s"] = median(setups)
	if len(plain) == 0 {
		return rep
	}

	roundMS := func(rs []roundResult) (ms []float64, ops int64) {
		for _, r := range rs {
			ms = append(ms, float64(r.wall)/1e6)
			ops += r.acked
		}
		return ms, ops
	}
	plainMS, plainOps := roundMS(plain)
	trMS, trOps := roundMS(traced)
	p50 := median(plainMS)
	cpuOp := float64(plainCPU.Microseconds()) / float64(plainOps)
	rep.e2e["p50_ms"] = p50
	rep.e2e["cpu_us_op"] = cpuOp
	opsS := float64(sz.ingestRound) / (p50 / 1e3)
	rep.layer["ingest.ops_s"] = opsS
	runtimeLayer(rep, ms0, ms1, plainOps+trOps)

	// Correctness: the follower equals the leader, with no gaps or
	// resyncs on the feed.
	checkFollower(rep, env, opts.inject.divergeFollower)

	// Crash image: checkpoint (rimd's periodic barrier), one more fixed
	// round, then Sync and copy the data directory with no shutdown
	// checkpoint; boot it as rimd does.
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	if _, err := env.lmgr.CheckpointAll(ctx); err != nil {
		rep.fail("ingest: checkpoint barrier: %v", err)
		return rep
	}
	tail := env.mutations(rng, sz.ingestRound, sz.ingestSide)
	r := env.round(tail, sz.ingestWindow)
	rep.attempted += int64(len(tail))
	rep.failed += int64(len(tail)) - r.acked
	if r.err != nil {
		rep.fail("ingest: tail round: %v", r.err)
		return rep
	}
	if err := env.lst.Sync(); err != nil {
		rep.fail("ingest: leader sync: %v", err)
		return rep
	}
	want := env.lsess.Snapshot()
	rep.e2e["heap_mb"] = liveHeapMiB()
	boot := func(verify bool) (serve.RecoveryStats, float64) {
		img := filepath.Join(env.tmp, fmt.Sprintf("image-%v", verify))
		if err := copyTree(filepath.Join(env.tmp, "leader"), img); err != nil {
			rep.fail("ingest: crash image: %v", err)
			return serve.RecoveryStats{}, 0
		}
		t0 := time.Now()
		st, err := store.Open(store.Options{Dir: img, Sync: store.SyncBatch})
		if err != nil {
			rep.fail("ingest: open crash image: %v", err)
			return serve.RecoveryStats{}, 0
		}
		defer st.Close()
		m := serve.NewManager(serve.Config{Store: st})
		defer m.Close(ctx)
		rs, err := m.Recover(verify)
		secs := time.Since(t0).Seconds()
		if err != nil {
			rep.fail("ingest: recover crash image: %v", err)
			return rs, secs
		}
		s, ok := m.Session(ingestSession)
		if !ok {
			rep.fail("ingest: crash image lost the session")
			return rs, secs
		}
		if err := s.Flush(ctx); err != nil {
			rep.fail("ingest: flush booted session: %v", err)
		}
		if err := sameState(want, s.Snapshot()); err != nil {
			rep.fail("ingest: crash-image boot differs from the leader: %v", err)
		}
		return rs, secs
	}
	rs, recoverS := boot(true)
	rep.layer["ingest.recover_s"] = recoverS
	rep.layer["recover.replayed_muts"] = float64(rs.ReplayedMutations)
	rep.note("ingest: n=%d round=%d window=%d; %d boots, %d untraced rounds; ops_s=%.0f recover_s=%.4f (replayed %d mutations, verified %d)",
		sz.ingestN, sz.ingestRound, sz.ingestWindow, len(setups), len(plain), opsS, recoverS, rs.ReplayedMutations, rs.Verified)
	if !opts.trace {
		return rep
	}
	_, plainS := boot(false)
	rep.layer["recover.verify_s"] = recoverS - plainS
	rep.layer["store.scan_s"] = scanImage(rep, env)
	ingestLayers(rep, env, lastT, traced)
	rep.layer["trace.overhead_cpu_frac"] = ratio(float64(trCPU.Microseconds())/float64(trOps), cpuOp) - 1
	if tailOK(len(trMS), 0.5) {
		rep.layer["trace.overhead_p50_frac"] = ratio(median(trMS), p50) - 1
	}
	writeSpans(rep, env.t, opts)
	return rep
}

// checkFollower compares the follower's state with the leader's.
func checkFollower(rep *report, env *ingestEnv, diverge bool) {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	fs, ok := env.fmgr.Session(ingestSession)
	if !ok {
		rep.fail("ingest: follower has no session")
		return
	}
	if diverge {
		// Test-only fault: a write the leader never saw.
		env.fmgr.SetReadOnly(false)
		fs.Apply(serve.SetRadius(0, 3.25))
	}
	if err := fs.Flush(ctx); err != nil {
		rep.fail("ingest: flush follower: %v", err)
		return
	}
	if err := sameState(env.lsess.Snapshot(), fs.Snapshot()); err != nil {
		rep.fail("ingest: follower differs from the leader: %v", err)
	}
	st := env.fol.Stats()
	if st.Gaps != 0 || st.Resyncs != 0 {
		rep.fail("ingest: follower saw %d gaps and %d resyncs", st.Gaps, st.Resyncs)
	}
	if p := env.folErr.Load(); p != nil {
		rep.fail("ingest: follower stopped: %v", *p)
	}
}

// sameState compares two published snapshots node by node: IDs,
// positions, radii and per-node interference, plus I(G) and the
// sequence.
func sameState(a, b *serve.Snapshot) error {
	if a.Seq != b.Seq || a.N != b.N || a.Max != b.Max || len(a.Nodes) != len(b.Nodes) {
		return fmt.Errorf("seq %d/%d, n %d/%d, I(G) %d/%d", a.Seq, b.Seq, a.N, b.N, a.Max, b.Max)
	}
	an := append([]serve.NodeState(nil), a.Nodes...)
	bn := append([]serve.NodeState(nil), b.Nodes...)
	sort.Slice(an, func(i, j int) bool { return an[i].ID < an[j].ID })
	sort.Slice(bn, func(i, j int) bool { return bn[i].ID < bn[j].ID })
	for i := range an {
		if an[i] != bn[i] {
			return fmt.Errorf("node %d: %+v vs %+v", an[i].ID, an[i], bn[i])
		}
	}
	return nil
}

// copyTree copies a directory of regular files (the store's layout).
func copyTree(src, dst string) error {
	return filepath.WalkDir(src, func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		rel, _ := filepath.Rel(src, path)
		to := filepath.Join(dst, rel)
		if d.IsDir() {
			return os.MkdirAll(to, 0o755)
		}
		in, err := os.Open(path)
		if err != nil {
			return err
		}
		defer in.Close()
		out, err := os.Create(to)
		if err != nil {
			return err
		}
		if _, err := io.Copy(out, in); err != nil {
			out.Close()
			return err
		}
		return out.Close()
	})
}

// scanImage times one Store.Scan over a fresh copy of the crash image.
func scanImage(rep *report, env *ingestEnv) float64 {
	img := filepath.Join(env.tmp, "image-scan")
	if err := copyTree(filepath.Join(env.tmp, "leader"), img); err != nil {
		rep.fail("ingest: scan image: %v", err)
		return 0
	}
	st, err := store.Open(store.Options{Dir: img, Sync: store.SyncBatch})
	if err != nil {
		rep.fail("ingest: open scan image: %v", err)
		return 0
	}
	defer st.Close()
	t0 := time.Now()
	if _, err := st.Scan(func(store.Record) error { return nil }); err != nil {
		rep.fail("ingest: scan: %v", err)
	}
	return time.Since(t0).Seconds()
}

// ingestLayers derives the per-layer metrics from the traced rounds of
// the last boot, whose recorders env holds; the catch-up median pools
// the traced rounds of every boot.
func ingestLayers(rep *report, env *ingestEnv, traced, all []roundResult) {
	var wallNS, ops, seqAdv, submitNS int64
	var catchup []float64
	var windows [][2]int64
	for _, r := range traced {
		wallNS += int64(r.wall)
		ops += r.acked
		seqAdv += int64(r.seqTo - r.seqFrom)
		submitNS += r.submitNS
		windows = append(windows, [2]int64{r.start, r.end})
	}
	for _, r := range all {
		catchup = append(catchup, float64(r.catchup)/1e6)
	}
	fops := float64(ops)
	lb, _ := env.lnode.records()
	fb, _ := env.fnode.records()

	rep.layer["wire.bytes_in_per_op"] = ratio(float64(env.wireBytes.in.Load()), fops)
	rep.layer["wire.bytes_out_per_op"] = ratio(float64(env.wireBytes.out.Load()), fops)
	rep.layer["wire.submit_us"] = ratio(float64(submitNS)/1e3, fops)

	serveLayers(rep, lb, wallNS, fops)
	rep.layer["serve.coalesced_frac"] = 1 - ratio(float64(seqAdv), fops)

	rep.layer["store.bytes_per_op"] = ratio(float64(env.lfs.bytes.Load()), fops)
	rep.layer["store.write_us_per_op"] = ratio(float64(env.lfs.writeNS.Load())/1e3, fops)
	var writes []float64
	for _, b := range lb {
		writes = append(writes, float64(b.writes))
	}
	rep.layer["store.writes_per_batch"] = mean(writes)
	env.lfs.mu.Lock()
	fsyncs := append([]float64(nil), env.lfs.fsyncs...)
	env.lfs.mu.Unlock()
	rep.layer["store.fsyncs"] = float64(len(fsyncs))
	rep.layer["store.fsync_ms_p50"] = gated(fsyncs, 0.5)

	rep.layer["repl.bytes_per_op"] = ratio(float64(env.replBytes.in.Load()), fops)
	lag := replLag(lb, fb)
	rep.layer["repl.lag_p50_ms"] = gated(lag, 0.5)
	rep.layer["repl.lag_p99_ms"] = gated(lag, 0.99)
	rep.layer["repl.catchup_ms"] = gated(catchup, 0.5)
	var fdur []float64
	var fbusy int64
	for _, b := range fb {
		fdur = append(fdur, float64(b.end-b.start)/1e3)
		fbusy += b.end - b.start
	}
	rep.layer["repl.follower_batch_us_p50"] = gated(fdur, 0.5)
	rep.layer["repl.follower_busy_frac"] = ratio(float64(fbusy), float64(wallNS))
	st := env.fol.Stats()
	rep.layer["repl.gaps"] = float64(st.Gaps)
	rep.layer["repl.resyncs"] = float64(st.Resyncs)

	var cb churnBatches
	cb.add(lb)
	dynamicLayers(rep, cb, env.lcore.builds.Load())
	coreLayers(rep, &env.lcore, fops, float64(wallNS))

	var iv [][2]int64
	for _, b := range append(lb, fb...) {
		iv = append(iv, [2]int64{b.start, b.end})
	}
	rep.layer["ledger.ingest_explained_frac"] = ratio(float64(coveredWithin(iv, windows)), float64(wallNS))
	rep.note("ingest: last boot traced %d rounds: %d leader batches, %d follower batches, %d fsyncs",
		len(traced), len(lb), len(fb), len(fsyncs))
}

// serveLayers fills the serve.* metrics from one node's batches.
func serveLayers(rep *report, bs []batchRec, wallNS int64, ops float64) {
	var dur, self []float64
	var busy int64
	for _, b := range bs {
		d := b.end - b.start
		busy += d
		dur = append(dur, float64(d)/1e3)
		self = append(self, float64(max(d-b.storeNS-b.engineNS, 0))/1e3)
	}
	rep.layer["serve.batches_per_s"] = ratio(float64(len(bs)), float64(wallNS)/1e9)
	rep.layer["serve.ops_per_batch"] = ratio(ops, float64(len(bs)))
	rep.layer["serve.batch_us_p50"] = gated(dur, 0.5)
	rep.layer["serve.batch_us_p99"] = gated(dur, 0.99)
	rep.layer["serve.busy_frac"] = ratio(float64(busy), float64(wallNS))
	rep.layer["serve.self_us_p50"] = gated(self, 0.5)
}

// churnBatches are the durations (ms) of the batches that ran an engine
// factory and of those that changed the engine's node count.
type churnBatches struct{ rebuild, churn []float64 }

func (c *churnBatches) add(bs []batchRec) {
	for _, b := range bs {
		d := float64(b.end-b.start) / 1e6
		if b.rebuild {
			c.rebuild = append(c.rebuild, d)
		}
		if b.churn {
			c.churn = append(c.churn, d)
		}
	}
}

// dynamicLayers fills the dynamic.* metrics: engine rebuilds seen at the
// factory seam, and the batches that contained them or changed N.
func dynamicLayers(rep *report, c churnBatches, builds int64) {
	rep.layer["dynamic.rebuilds"] = float64(builds)
	rep.layer["dynamic.rebuild_ms_p50"] = gated(c.rebuild, 0.5)
	rep.layer["dynamic.churn_batch_ms_p50"] = gated(c.churn, 0.5)
}

// coreLayers fills the core.* metrics from a session engine's stats.
func coreLayers(rep *report, st *measureStats, ops, wallNS float64) {
	rep.layer["core.calls_per_op"] = ratio(float64(st.calls.Load()), ops)
	rep.layer["core.call_us_mean"] = ratio(float64(st.timedNS.Load())/1e3, float64(st.timed.Load()))
	rep.layer["core.move_us_mean"] = ratio(float64(st.moveNS.Load())/1e3, float64(st.moves.Load()))
	rep.layer["core.setradius_us_mean"] = ratio(float64(st.setNS.Load())/1e3, float64(st.setRadius.Load()))
	rep.layer["core.busy_frac"] = ratio(float64(st.busyNS()), wallNS)
}

// replLag pairs every leader batch with the first follower batch that
// reaches its sequence, in milliseconds.
func replLag(leader, follower []batchRec) []float64 {
	var out []float64
	j := 0
	for _, l := range leader {
		for j < len(follower) && follower[j].seq < l.seq {
			j++
		}
		if j == len(follower) {
			break
		}
		if f := follower[j]; f.end >= l.end {
			out = append(out, float64(f.end-l.end)/1e6)
		}
	}
	return out
}

// coveredWithin is the total length of the union of iv, clipped to the
// windows.
func coveredWithin(iv [][2]int64, windows [][2]int64) int64 {
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var total int64
	for _, w := range windows {
		cur := w[0]
		for _, v := range iv {
			a, b := max(v[0], cur), min(v[1], w[1])
			if b > a {
				total += b - a
				cur = b
			}
		}
	}
	return total
}
