package main

import (
	"context"
	"fmt"
	"math/rand"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/mobility"
	"repro/internal/obs"
	"repro/internal/serve"
	"repro/internal/sub"
	"repro/internal/wire"
)

// live: open loop at fixed rates well below capacity. Random-waypoint
// moves arrive as a Poisson stream, joins and leaves as a slower one, and
// a dashboard reads the full node state at a fixed rate, while 1200
// standing subscriptions (threshold, region and max-changed) are pushed
// over the wire. No store and no follower. Every latency is timed from
// the op's intended send time. p50_ms is the update→notify median and an
// op is one completed client operation (mutation acked or read
// returned).

const liveSession = "live"

// liveOp is one scheduled mutation.
type liveOp struct {
	at     time.Duration // intended send time from the phase start
	mut    serve.Mutation
	wantID int64 // the id a join must be assigned (-1 for other ops)
}

// schedule draws a phase's mutations: Poisson moves taken from the
// mobility model (stepped on a 10ms tick; each arrival takes the next
// displaced node, rotating so low indices are not favoured), and Poisson
// joins and leaves (a leave removes the oldest joined node).
type scheduler struct {
	rng    *rand.Rand
	model  *mobility.Model
	side   float64
	moved  []int
	rot    int
	joined []int64 // ids of joined nodes not yet removed, oldest first
	nextID int64   // the id the session will assign to the next join
}

const liveTick = 10 * time.Millisecond

func (s *scheduler) phase(d time.Duration, moveRate, churnRate float64) []liveOp {
	var ops []liveOp
	exp := func(rate float64) time.Duration {
		return time.Duration(s.rng.ExpFloat64() / rate * float64(time.Second))
	}
	nextMove, nextJoin, nextLeave := exp(moveRate), exp(churnRate), exp(churnRate)
	for tick := time.Duration(0); tick < d; tick += liveTick {
		s.moved = s.model.StepInto(liveTick.Seconds(), s.moved[:0])
		end := min(tick+liveTick, d)
		for {
			at := min(nextMove, nextJoin, nextLeave)
			if at >= end {
				break
			}
			switch at {
			case nextMove:
				nextMove += exp(moveRate)
				if len(s.moved) == 0 {
					continue
				}
				i := s.moved[s.rot%len(s.moved)]
				s.rot++
				p := s.model.At(i)
				ops = append(ops, liveOp{at: at, mut: serve.Move(int64(i), p.X, p.Y), wantID: -1})
			case nextJoin:
				nextJoin += exp(churnRate)
				ops = append(ops, liveOp{at: at, mut: serve.Add(s.rng.Float64()*s.side, s.rng.Float64()*s.side), wantID: s.nextID})
				s.joined = append(s.joined, s.nextID)
				s.nextID++
			default:
				nextLeave += exp(churnRate)
				if len(s.joined) == 0 {
					continue
				}
				ops = append(ops, liveOp{at: at, mut: serve.Remove(s.joined[0]), wantID: -1})
				s.joined = s.joined[1:]
			}
		}
	}
	return ops
}

// liveEvent is one pushed event as the client saw it.
type liveEvent struct {
	ev  sub.Event
	got int64 // arrival, ns since the env's base
}

// liveEnv is one booted live stack.
type liveEnv struct {
	t       *tracer
	nd      *node
	core    measureStats
	bytes   byteCount
	base    time.Time // the tracer's base, so op and batch spans share a clock
	hub     *sub.Hub
	mgr     *serve.Manager
	srv     *wire.Server
	client  *wire.Client // mutations, subscriptions and events: one ordered connection
	reader  *wire.Client // the dashboard's connection
	sched   *scheduler
	sz      sizes
	subs    int
	issued  int64   // mutations issued so far (the k-th commits as seq k)
	dueNS   []int64 // intended send time by seq, ns since base
	sentNS  []int64 // actual send time by seq
	subNS   []int64 // time inside GoMutate by seq
	wg      sync.WaitGroup
	dropOne atomic.Bool  // test fault: lose the next event
	lost    atomic.Int64 // events the fault dropped

	mu     sync.Mutex
	events []liveEvent
}

func (e *liveEnv) now() int64 { return int64(time.Since(e.base)) }

func (e *liveEnv) onEvent(ev sub.Event) {
	got := e.now()
	if !ev.Init() && e.dropOne.CompareAndSwap(true, false) {
		e.lost.Add(1)
		return
	}
	e.mu.Lock()
	e.events = append(e.events, liveEvent{ev: ev, got: got})
	e.mu.Unlock()
}

func (e *liveEnv) eventCount() int {
	e.mu.Lock()
	defer e.mu.Unlock()
	return len(e.events)
}

// bootLive boots the stack, creates the session on the mobility instance
// drawn from seed and registers the subscriptions.
func bootLive(opts options, seed int64) (*liveEnv, error) {
	sz, traced := opts.size, opts.trace
	t := newTracer()
	e := &liveEnv{t: t, base: t.base, subs: sz.liveSubs, sz: sz}
	e.bytes.on = &e.t.on
	e.nd = newNode(e.t, "live")
	e.hub = sub.NewHub(sub.Config{QueueCap: 1 << 15, Registry: obs.NewRegistry()})
	cfg := serve.Config{QueueCap: 1024, BatchCap: 256, AfterBatchDelta: e.hub.AfterBatchDelta}
	if traced {
		cfg.Engine = tracedFactory(e.t, core.GraphMeasure, &e.core, e.nd)
		cfg.BeforeBatch, cfg.AfterBatch = e.nd.before, e.nd.after
		cfg.AfterBatchDelta = e.nd.subHook(e.hub.AfterBatchDelta)
	}
	e.mgr = serve.NewManager(cfg)
	e.nd.mgr = e.mgr
	e.srv = wire.NewServer(wire.ServerConfig{Manager: e.mgr, Hub: e.hub})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		e.close()
		return nil, err
	}
	var l net.Listener = ln
	if traced {
		l = &countingListener{Listener: ln, bc: &e.bytes}
	}
	e.wg.Add(1)
	go func() {
		defer e.wg.Done()
		e.srv.Serve(l)
	}()
	fail := func(err error) (*liveEnv, error) {
		e.close()
		return nil, err
	}
	addr := ln.Addr().String()
	if e.client, err = wire.Dial(wire.ClientConfig{Addr: addr, Conns: 1, OnEvent: e.onEvent}); err != nil {
		return fail(err)
	}
	if e.reader, err = wire.Dial(wire.ClientConfig{Addr: addr, Conns: 1}); err != nil {
		return fail(err)
	}

	rng := rand.New(rand.NewSource(seed))
	model := mobility.NewWaypoint(rng, sz.liveN, sz.liveSide, sz.liveSide, 0.5, 3.0, 1.0)
	// Random-waypoint mobility starts far from its stationary state (all
	// nodes uniform, all moving at once) and drifts for tens of seconds;
	// step it past that transient before the session sees it, so a run
	// measures the stationary regime rather than how far into the drift
	// it got.
	for t := time.Duration(0); t < sz.liveSettle; t += liveTick {
		model.Step(liveTick.Seconds())
	}
	e.sched = &scheduler{rng: rng, model: model, side: sz.liveSide, nextID: int64(sz.liveN)}
	if _, err := e.client.Create(liveSession, model.Positions()); err != nil {
		return fail(fmt.Errorf("create: %w", err))
	}
	// The subscription pool: every predicate kind, spread over the field.
	for i := 0; i < sz.liveSubs; i++ {
		var p sub.Predicate
		switch {
		case i%20 == 0:
			p = sub.Predicate{Kind: sub.KindMax}
		case i%2 == 0:
			p = sub.Predicate{Kind: sub.KindThreshold, K: int32(1 + rng.Intn(4)), Receiver: int64(rng.Intn(sz.liveN))}
		default:
			p = sub.Predicate{Kind: sub.KindRegion,
				X: rng.Float64() * sz.liveSide, Y: rng.Float64() * sz.liveSide, R: 0.5 + rng.Float64()*2}
		}
		if _, err := e.client.Subscribe(liveSession, p); err != nil {
			return fail(fmt.Errorf("subscribe: %w", err))
		}
	}
	return e, nil
}

// warm allocates the per-op records and runs the open-loop warm-up. It
// is not part of setup_s: the warm-up lasts a fixed time at fixed rates,
// so it would only add a constant.
func (e *liveEnv) warm(opts options) error {
	sz := e.sz
	total := int(float64(sz.liveWarm+time.Duration(opts.seconds*float64(time.Second))) / float64(time.Second) *
		(sz.liveMoveRate + 2*sz.liveChurnRate) * 1.5)
	// The per-op records are allocated once, at their full size, so the
	// benchmark's own footprint does not grow during the run and move the
	// collector's pacing of the program under test.
	e.mu.Lock()
	e.events = append(make([]liveEvent, 0, 4*total), e.events...)
	e.mu.Unlock()
	e.dueNS = make([]int64, 1, total+1)
	e.sentNS = make([]int64, 1, total+1)
	e.subNS = make([]int64, 1, total+1)
	warm := e.sched.phase(sz.liveWarm, sz.liveMoveRate, sz.liveChurnRate)
	if ph := e.drive(warm, 0, 0); ph.err != nil {
		return fmt.Errorf("warm-up: %w", ph.err)
	}
	return nil
}

func (e *liveEnv) close() {
	if e.client != nil {
		e.client.Close()
	}
	if e.reader != nil {
		e.reader.Close()
	}
	if e.srv != nil {
		e.srv.Close()
	}
	e.wg.Wait()
	if e.mgr != nil {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		e.mgr.Close(ctx)
	}
}

// phaseResult is what one open-loop phase measured.
type phaseResult struct {
	acks      [2][]float64 // mutate→ack ms, by slice parity (1 = traced)
	reads     [2][]float64 // full Nodes read round trip ms
	late      []float64    // actual send − intended, ms
	ops       [2]int64     // completed ops by parity
	cpu       [2]time.Duration
	wall      [2]time.Duration
	attempted int64
	failed    int64
	seqFrom   uint64 // issued mutations before and after the phase
	seqTo     uint64
	evFrom    int // events received before the phase
	err       error
}

// ackRec is one in-flight mutation for the collector.
type ackRec struct {
	p         *wire.Pending
	seq       uint64
	due, sent int64 // intended and actual send time
	submit    int64 // time inside GoMutate
	parity    int
	wantID    int64 // expected id of an Add (-1 otherwise)
}

// drive runs one open-loop phase: the dispatcher (this goroutine) sends
// every op at its intended time, one collector waits for the acks, and
// the dashboard reads at readRate. With slice > 0 the phase alternates
// untraced and traced slices of that length.
func (e *liveEnv) drive(ops []liveOp, readRate float64, slice time.Duration) phaseResult {
	var ph phaseResult
	ph.late = make([]float64, 0, len(ops))
	for p := range ph.acks {
		ph.acks[p] = make([]float64, 0, len(ops))
	}
	ph.seqFrom = uint64(e.issued)
	ph.evFrom = e.eventCount()
	inflight := make(chan ackRec, 1<<16) // far beyond any backlog at the chosen rates
	collected := make(chan struct{})
	var firstErr error
	go func() {
		defer close(collected)
		var ids []int64
		for r := range inflight {
			var err error
			ids, err = r.p.MutateIDs(ids[:0])
			acked := e.now()
			lat := float64(acked-r.due) / 1e6
			if r.parity == 1 {
				// The op's span tree: mutate→ack from the intended send,
				// with the generator's lateness and the client submit.
				id := e.t.add(span{Name: "live.op", Start: r.due, End: acked, Ref: r.seq})
				e.t.add(span{Parent: id, Name: "loadgen.late", Start: r.due, End: r.sent, Ref: r.seq})
				e.t.add(span{Parent: id, Name: "wire.submit", Start: r.sent, End: r.sent + r.submit, Ref: r.seq})
			}
			ph.attempted++
			switch {
			case err != nil:
				ph.failed++ // backpressure included: the open loop never retries
				if firstErr == nil {
					firstErr = err
				}
			case r.wantID >= 0 && (len(ids) != 1 || ids[0] != r.wantID):
				ph.failed++
				if firstErr == nil {
					firstErr = fmt.Errorf("join got ids %v, want [%d]", ids, r.wantID)
				}
			default:
				ph.acks[r.parity] = append(ph.acks[r.parity], lat)
				ph.ops[r.parity]++
			}
		}
	}()

	start := e.now()
	parity := func(at int64) int {
		if slice <= 0 {
			return 0
		}
		return int((at - start) / int64(slice) % 2)
	}
	stopReads := make(chan struct{})
	readsDone := make(chan struct{})
	var readAttempted, readFailed int64
	go func() {
		defer close(readsDone)
		if readRate <= 0 {
			return
		}
		every := time.Duration(float64(time.Second) / readRate)
		var nodes []wire.Node
		var lastSeq uint64
		for k := int64(1); ; k++ {
			due := start + k*int64(every)
			select {
			case <-stopReads:
				return
			case <-time.After(time.Duration(due - e.now())):
			}
			readAttempted++
			par := parity(due)
			a := e.now()
			p := e.reader.GoNodes(liveSession)
			if par == 1 {
				e.t.add(span{Name: "wire.submit", Start: a, End: e.now(), Ref: uint64(k)})
			}
			seq, got, err := p.Nodes(nodes[:0])
			nodes = got
			if err != nil || len(got) == 0 || seq < lastSeq {
				readFailed++
				continue
			}
			lastSeq = seq
			ph.reads[par] = append(ph.reads[par], float64(e.now()-due)/1e6)
		}
	}()

	cur := -1
	var c0 time.Duration
	var w0 int64
	toggle := func(p int) {
		now := e.now()
		c := cpuNow()
		if cur >= 0 {
			ph.cpu[cur] += c - c0
			ph.wall[cur] += time.Duration(now - w0)
		}
		cur, c0, w0 = p, c, now
		e.t.on.Store(p == 1)
	}
	toggle(0)
	for _, op := range ops {
		due := start + int64(op.at)
		if p := parity(due); p != cur {
			toggle(p)
		}
		if d := due - e.now(); d > 0 {
			time.Sleep(time.Duration(d))
		}
		e.issued++
		sent := e.now()
		e.dueNS = append(e.dueNS, due)
		e.sentNS = append(e.sentNS, sent)
		ph.late = append(ph.late, float64(sent-due)/1e6)
		p := e.client.GoMutate(liveSession, []serve.Mutation{op.mut})
		submit := e.now() - sent
		e.subNS = append(e.subNS, submit)
		inflight <- ackRec{p: p, seq: uint64(e.issued), due: due, sent: sent, submit: submit, parity: cur, wantID: op.wantID}
	}
	close(inflight)
	<-collected
	close(stopReads)
	<-readsDone
	ph.attempted += readAttempted
	ph.failed += readFailed
	for p := range ph.reads {
		ph.ops[p] += int64(len(ph.reads[p]))
	}
	ph.seqTo = uint64(e.issued)

	// Barrier: every issued mutation applied and every event emitted
	// hub-side; then wait for the emitted events to arrive.
	if _, err := e.client.Flush(liveSession); err != nil && ph.err == nil {
		ph.err = fmt.Errorf("flush: %w", err)
	}
	want := e.hub.Stats().Events
	deadline := time.Now().Add(30 * time.Second)
	for int64(e.eventCount())+e.lost.Load() < want && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	toggle(0)
	e.t.on.Store(false)
	if ph.failed > 0 && ph.err == nil {
		ph.err = fmt.Errorf("%d of %d ops failed, first: %v", ph.failed, ph.attempted, firstErr)
	}
	return ph
}

// liveRun is what one boot of the live stack measured.
type liveRun struct {
	ph           phaseResult
	notify       [2][]float64 // update→notify ms by slice parity
	events, gaps int64
	hub0, hub1   sub.Stats
}

// runLive boots the stack liveRuns times and measures an equal share of
// the window on each. The stack's state after warm-up depends on batch
// boundaries, which an open loop cannot repeat exactly, and each run
// settles into its own cost level; pooling several independent boots
// averages that out. Samples are pooled across boots. setup_s is the
// median boot; boots that are only timed, each on an instance of its
// own, come first and make up the count.
func runLive(opts options) *report {
	rep := newReport()
	zeroLayers(rep)
	sz := opts.size
	window := time.Duration(opts.seconds / float64(sz.liveRuns) * float64(time.Second))
	slice := time.Duration(0)
	if opts.trace {
		slice = window / 4 // alternate untraced and traced slices
	}
	var (
		setups       []float64
		runs         []liveRun
		last         *liveEnv
		notify, acks [2][]float64
		reads, late  []float64
		cpu          [2]time.Duration
		ops          [2]int64
		events, gaps int64
		dropped      int64
		pool         livePool // traced batches of every boot
	)
	boot := func(k int) *liveEnv {
		t0 := time.Now()
		env, err := bootLive(opts, bootSeed(opts.seed, k))
		if err != nil {
			rep.fail("live: set-up: %v", err)
			rep.attempted++
			rep.failed++
			return nil
		}
		setups = append(setups, time.Since(t0).Seconds())
		return env
	}
	for k := sz.liveRuns; k < sz.samples; k++ {
		env := boot(k)
		if env == nil {
			return rep
		}
		env.close()
	}
	ms0 := memNow()
	for k := 0; k < sz.liveRuns; k++ {
		env := boot(k)
		if env == nil {
			break
		}
		if err := env.warm(opts); err != nil {
			rep.fail("live: %v", err)
			rep.attempted++
			rep.failed++
			env.close()
			break
		}
		env.dropOne.Store(opts.inject.dropEvent)
		r := env.measure(rep, window, slice)
		runs = append(runs, r)
		rep.attempted += r.ph.attempted
		rep.failed += r.ph.failed
		for p := 0; p < 2; p++ {
			notify[p] = append(notify[p], r.notify[p]...)
			acks[p] = append(acks[p], r.ph.acks[p]...)
			cpu[p] += r.ph.cpu[p]
			ops[p] += r.ph.ops[p]
		}
		reads = append(reads, r.ph.reads[0]...)
		late = append(late, r.ph.late...)
		events += r.events
		gaps += r.gaps
		dropped += r.hub1.Dropped - r.hub0.Dropped
		if opts.trace {
			pool.add(env, r)
		}
		if k < sz.liveRuns-1 {
			env.close()
			continue
		}
		last = env
	}
	ms1 := memNow()
	if last == nil {
		return rep
	}
	defer last.close()
	rep.e2e["setup_s"] = median(setups)
	n50 := median(notify[0])
	rep.e2e["p50_ms"] = n50
	cpuOp := float64(cpu[0].Microseconds()) / float64(ops[0])
	rep.e2e["cpu_us_op"] = cpuOp
	if len(notify[0]) == 0 {
		rep.fail("live: no update→notify samples (dead rig)")
	}

	rep.layer["live.ack_p50_ms"] = gated(acks[0], 0.5)
	rep.layer["live.ack_p99_ms"] = gated(acks[0], 0.99)
	rep.layer["live.notify_p50_ms"] = gated(notify[0], 0.5)
	rep.layer["live.notify_p99_ms"] = gated(notify[0], 0.99)
	rep.layer["live.notify_samples"] = float64(len(notify[0]))
	rep.layer["live.read_p50_ms"] = gated(reads, 0.5)
	rep.layer["loadgen.late_p50_ms"] = gated(late, 0.5)
	rep.layer["loadgen.late_p99_ms"] = gated(late, 0.99)
	rep.layer["wire.events_recv"] = float64(events)
	rep.layer["wire.event_gaps"] = float64(gaps)
	rep.layer["sub.dropped"] = float64(dropped)
	rep.note("live: n=%d subs=%d moves/s=%g joins/s=leaves/s=%g reads/s=%g; %d boots of %s; %d events",
		sz.liveN, sz.liveSubs, sz.liveMoveRate, sz.liveChurnRate, sz.liveReadRate, len(runs), window, events)
	rep.note("live: ack ms p50=%.4f p99=%.4f (n=%d); notify ms p50=%.4f p99=%.4f (n=%d batches); read ms p50=%.4f (n=%d); late ms p50=%.4f",
		median(acks[0]), gated(acks[0], 0.99), len(acks[0]), n50, gated(notify[0], 0.99), len(notify[0]),
		median(reads), len(reads), median(late))
	runtimeLayer(rep, ms0, ms1, ops[0]+ops[1])
	if opts.trace {
		liveLayers(rep, last, runs[len(runs)-1], pool)
		rep.layer["trace.overhead_cpu_frac"] = ratio(float64(cpu[1].Microseconds())/float64(ops[1]), cpuOp) - 1
		if tailOK(len(notify[1]), 0.5) {
			rep.layer["trace.overhead_p50_frac"] = ratio(median(notify[1]), n50) - 1
		}
		writeSpans(rep, last.t, opts)
	}
	rep.e2e["heap_mb"] = last.heapMiB()
	return rep
}

// measure drives one window on a booted stack and checks its streams.
func (e *liveEnv) measure(rep *report, window, slice time.Duration) liveRun {
	sz := e.sz
	var r liveRun
	ops := e.sched.phase(window, sz.liveMoveRate, sz.liveChurnRate)
	r.hub0 = e.hub.Stats()
	r.ph = e.drive(ops, sz.liveReadRate, slice)
	r.hub1 = e.hub.Stats()
	if r.ph.err != nil {
		rep.fail("live: %v", r.ph.err)
	}
	// Update→notify: one sample per update batch that produced events,
	// from the intended send time of the batch's last mutation (events
	// carry that seq) to the arrival of the batch's first event. A batch
	// that fans out to many subscriptions counts once, so the figure does
	// not hinge on how many subscriptions one update happens to touch.
	e.mu.Lock()
	events := append([]liveEvent(nil), e.events...)
	e.mu.Unlock()
	for _, le := range events[r.ph.evFrom:] {
		r.events++
		if le.ev.Gap() {
			r.gaps++
		}
	}
	for seq, got := range notifyFirst(events[r.ph.evFrom:], r.ph) {
		due := e.dueNS[seq]
		par := parityOf(due, e, r.ph, slice)
		r.notify[par] = append(r.notify[par], float64(got-due)/1e6)
	}
	checkStreams(rep, events, e.subs, r.hub1)
	return r
}

// notifyFirst maps every batch seq of the phase that produced events to
// the arrival time of its first event.
func notifyFirst(events []liveEvent, ph phaseResult) map[uint64]int64 {
	first := map[uint64]int64{}
	for _, le := range events {
		bs := le.ev.BatchSeq
		if le.ev.Init() || bs <= ph.seqFrom || bs > ph.seqTo {
			continue
		}
		if _, ok := first[bs]; !ok {
			first[bs] = le.got
		}
	}
	return first
}

// heapMiB is the live heap with the server still up, after the
// benchmark let go of its own per-op records.
func (e *liveEnv) heapMiB() float64 {
	e.mu.Lock()
	e.events = nil
	e.mu.Unlock()
	e.dueNS, e.sentNS, e.subNS = nil, nil, nil
	return liveHeapMiB()
}

// parityOf maps an intended send time onto its slice parity.
func parityOf(due int64, env *liveEnv, ph phaseResult, slice time.Duration) int {
	if slice <= 0 {
		return 0
	}
	start := env.dueNS[ph.seqFrom+1]
	return int((due - start) / int64(slice) % 2)
}

// checkStreams holds every subscription stream to its contract: one
// init event at seq 1, then contiguous seqs with no gap marks, no event
// shed anywhere, and every event the hub emitted received.
func checkStreams(rep *report, events []liveEvent, subs int, hub sub.Stats) {
	last := map[uint64]uint64{}
	bad := 0
	for _, le := range events {
		ev := le.ev
		want := last[ev.SubID] + 1
		if ev.Seq != want || ev.Gap() || ev.Init() != (ev.Seq == 1) {
			if bad < 3 {
				rep.fail("live: subscription %d: event seq %d (want %d), gap=%v init=%v", ev.SubID, ev.Seq, want, ev.Gap(), ev.Init())
			}
			bad++
		}
		last[ev.SubID] = ev.Seq
	}
	if bad > 3 {
		rep.fail("live: %d more stream violations", bad-3)
	}
	if len(last) != subs {
		rep.fail("live: %d of %d subscriptions delivered events", len(last), subs)
	}
	if hub.Dropped != 0 {
		rep.fail("live: the hub shed %d events", hub.Dropped)
	}
	if int64(len(events)) != hub.Events {
		rep.fail("live: received %d events, the hub emitted %d", len(events), hub.Events)
	}
}

// livePool gathers the traced batches and match passes of every boot:
// one boot's traced slices hold too few batches for the p99 and too few
// joins and leaves for the churn medians.
type livePool struct {
	bs     []batchRec
	passes []subRec
	wallNS int64 // traced time
	acked  int64 // mutations acked in traced slices
	churn  churnBatches
	builds int64
}

func (p *livePool) add(env *liveEnv, r liveRun) {
	bs, passes := env.nd.records()
	p.bs = append(p.bs, bs...)
	p.passes = append(p.passes, passes...)
	p.wallNS += int64(r.ph.wall[1])
	p.acked += int64(len(r.ph.acks[1]))
	p.churn.add(bs)
	p.builds += env.core.builds.Load()
}

// liveLayers derives the per-layer metrics from the traced slices: the
// batch, match and churn figures from every boot's (pool), the rest from
// the last boot's.
func liveLayers(rep *report, env *liveEnv, r liveRun, pool livePool) {
	ph, hub0, hub1 := r.ph, r.hub0, r.hub1
	wallNS := int64(ph.wall[1])
	ops := float64(ph.ops[1])
	bs, passes := env.nd.records()

	rep.layer["wire.bytes_in_per_op"] = ratio(float64(env.bytes.in.Load()), ops)
	rep.layer["wire.bytes_out_per_op"] = ratio(float64(env.bytes.out.Load()), ops)
	var submit []float64
	for seq := ph.seqFrom + 1; seq <= ph.seqTo; seq++ {
		submit = append(submit, float64(env.subNS[seq])/1e3)
	}
	rep.layer["wire.submit_us"] = mean(submit)

	serveLayers(rep, pool.bs, pool.wallNS, float64(pool.acked))
	var match []float64
	var subBusy int64
	for _, p := range pool.passes {
		subBusy += p.end - p.start
		if p.work {
			match = append(match, float64(p.end-p.start)/1e3)
		}
	}
	rep.layer["sub.match_us_p50"] = gated(match, 0.5)
	rep.layer["sub.busy_frac"] = ratio(float64(subBusy), float64(pool.wallNS))
	dynamicLayers(rep, pool.churn, pool.builds)
	subOf := map[uint64]int64{}
	for _, p := range passes {
		subOf[p.seq] = p.end - p.start
	}
	checked, evs := float64(hub1.Checked-hub0.Checked), float64(hub1.Events-hub0.Events)
	rep.layer["sub.checked_per_batch"] = ratio(checked, float64(hub1.Batches-hub0.Batches))
	rep.layer["sub.hit_frac"] = ratio(evs, checked)

	coreLayers(rep, &env.core, ops, float64(wallNS))

	// Ledger: for each traced notify sample, the share of its latency the
	// measured spans on its blocking path cover — generator lateness,
	// time inside GoMutate, the batch span and the match pass.
	batchOf := map[uint64]batchRec{}
	for _, b := range bs {
		batchOf[b.seq] = b
	}
	env.mu.Lock()
	events := append([]liveEvent(nil), env.events[ph.evFrom:]...)
	env.mu.Unlock()
	var frac []float64
	for seq, got := range notifyFirst(events, ph) {
		b, ok := batchOf[seq]
		lat := got - env.dueNS[seq]
		if !ok || lat <= 0 {
			continue
		}
		covered := (env.sentNS[seq] - env.dueNS[seq]) + env.subNS[seq] + (b.end - b.start) + subOf[seq]
		frac = append(frac, min(float64(covered)/float64(lat), 1))
	}
	rep.layer["ledger.notify_explained_frac"] = gated(frac, 0.5)
	rep.note("live: last boot traced %.1fs: %d batches, %d match passes, %d traced notify samples",
		float64(wallNS)/1e9, len(bs), len(passes), len(r.notify[1]))
}
