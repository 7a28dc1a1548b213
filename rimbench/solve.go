package main

import (
	"math/rand"
	"runtime"
	"time"

	"repro/internal/core"
	"repro/internal/gen"
	"repro/internal/geom"
	"repro/internal/opt"
	"repro/internal/oracle"
	"repro/internal/phys"
)

// solve: offline, one goroutine, fixed work. One round is the job list
// graph anneal → SINR anneal → exact search; every round repeats the same
// jobs on the same inputs, so rounds are directly comparable and the
// median round time is the end-to-end p50_ms. An op is one job, three to
// a round, so cpu_us_op does not depend on how much search a job needs.

type solveInst struct {
	pts   []geom.Point // uniform instance for both anneals
	chain []geom.Point // exponential chain for the exact search
}

// solveJobs is one round's outcome.
type solveJobs struct {
	graph, sinr, exact opt.Result
	graphS, sinrS      float64
	exactS, wallS      float64
}

// strip drops the radius assignments and topologies once they are
// checked, so the results a run keeps do not count in heap_mb.
func (j *solveJobs) strip() {
	for _, r := range []*opt.Result{&j.graph, &j.sinr, &j.exact} {
		r.Radii, r.Topology = nil, nil
	}
}

func runSolve(opts options) *report {
	rep := newReport()
	zeroLayers(rep)
	sz := opts.size
	// Set-up: instance generation plus one build of each engine, paying
	// their lazy set-up outside the timed rounds.
	var inst solveInst
	var setups []float64
	for len(setups) < sz.samples {
		t0 := time.Now()
		rng := rand.New(rand.NewSource(opts.seed))
		inst = solveInst{
			pts:   gen.UniformSquare(rng, sz.solveN, sz.solveSide),
			chain: gen.ExpChain(sz.exactN, sz.exactSpan),
		}
		core.NewEvaluator(inst.pts)
		phys.NewMeasure(inst.pts)
		setups = append(setups, time.Since(t0).Seconds())
	}
	setupS := median(setups)
	rep.e2e["setup_s"] = setupS

	t := newTracer()
	var coreSt, physSt measureStats
	graphF := core.MeasureFactory(core.GraphMeasure)
	sinrF := core.MeasureFactory(phys.NewMeasure)
	tracedGraph := tracedFactory(t, graphF, &coreSt, nil)
	tracedSinr := tracedFactory(t, sinrF, &physSt, nil)

	// The round runner. Untraced rounds call the production entry points
	// (opt.Anneal, opt.Exact); traced rounds pass the wrapped factories
	// through the *With seams, which walk bit-for-bit the same search.
	round := func(traced bool) solveJobs {
		var j solveJobs
		g, s := graphF, sinrF
		if traced {
			g, s = tracedGraph, tracedSinr
		}
		rootStart := t.now()
		root := t.ids.Add(1)
		job := func(name string, st *measureStats, fn func() opt.Result) (opt.Result, float64) {
			ns0 := st.busyNS()
			a := t.now()
			res := fn()
			b := t.now()
			if traced {
				id := t.add(span{Parent: root, Name: name, Start: a, End: b})
				if d := st.busyNS() - ns0; d > 0 {
					t.add(span{Parent: id, Name: name + ".measure", Start: a, End: a + d})
				}
			}
			return res, float64(b-a) / 1e9
		}
		j.graph, j.graphS = job("opt.anneal_graph", &coreSt, func() opt.Result {
			if !traced {
				return opt.Anneal(inst.pts, rand.New(rand.NewSource(opts.seed)), sz.graphIters)
			}
			return opt.AnnealWith(g, inst.pts, rand.New(rand.NewSource(opts.seed)), sz.graphIters)
		})
		j.sinr, j.sinrS = job("opt.anneal_sinr", &physSt, func() opt.Result {
			return opt.AnnealWith(s, inst.pts, rand.New(rand.NewSource(opts.seed+1)), sz.sinrIters)
		})
		j.exact, j.exactS = job("opt.exact", &coreSt, func() opt.Result {
			if !traced {
				return opt.Exact(inst.chain)
			}
			return opt.ExactWith(g, inst.chain)
		})
		end := t.now()
		if traced {
			t.add(span{ID: root, Name: "solve.round", Start: rootStart, End: end})
		}
		j.wallS = float64(end-rootStart) / 1e9
		return j
	}

	// Measure: rounds until the time budget is spent and there are enough
	// for the median (a traced run alternates untraced and traced rounds
	// and needs enough of each).
	var (
		plain, traced     []solveJobs
		plainCPU, trCPU   time.Duration
		first             *solveJobs
		attempted, failed int64
	)
	short := func() bool {
		return len(plain) < sz.samples || opts.trace && len(traced) < sz.samples
	}
	ms0 := memNow()
	start := time.Now()
	for i := 0; short() || time.Since(start).Seconds() < opts.seconds; i++ {
		tr := opts.trace && i%2 == 1
		t.on.Store(tr)
		c0 := cpuNow()
		j := round(tr)
		c := cpuNow() - c0
		attempted += 3
		if first == nil {
			first = &j
			failed += checkSolve(rep, inst, j)
		} else if j.graph.Interference != first.graph.Interference || j.sinr.Interference != first.sinr.Interference ||
			j.exact.Interference != first.exact.Interference || j.exact.Visited != first.exact.Visited {
			failed++
			rep.fail("solve: round %d differs from round 0 (I %d/%d/%d vs %d/%d/%d, visited %d vs %d)", i,
				j.graph.Interference, j.sinr.Interference, j.exact.Interference,
				first.graph.Interference, first.sinr.Interference, first.exact.Interference,
				j.exact.Visited, first.exact.Visited)
		}
		j.strip()
		if tr {
			traced, trCPU = append(traced, j), trCPU+c
		} else {
			plain, plainCPU = append(plain, j), plainCPU+c
		}
	}
	t.on.Store(false)
	ms1 := memNow()
	rep.attempted, rep.failed = attempted, failed

	wall := func(js []solveJobs) []float64 {
		var out []float64
		for _, j := range js {
			out = append(out, j.wallS)
		}
		return out
	}
	p50 := median(wall(plain)) * 1e3
	cpuOp := float64(plainCPU.Microseconds()) / float64(3*len(plain))
	rep.e2e["p50_ms"] = p50
	rep.e2e["cpu_us_op"] = cpuOp
	rep.e2e["heap_mb"] = liveHeapMiB()
	runtime.KeepAlive(inst)
	rep.note("solve: n=%d side=%g graph_iters=%d sinr_iters=%d exact=expchain-%d over %g; %d untraced rounds",
		sz.solveN, sz.solveSide, sz.graphIters, sz.sinrIters, sz.exactN, sz.exactSpan, len(plain))
	rep.note("solve: untraced round s: %.3f", wall(plain))
	rep.note("solve: solve_s p50=%.4f graph_I=%d sinr_I=%d exact_I=%d exact_visited=%d",
		p50/1e3, first.graph.Interference, first.sinr.Interference, first.exact.Interference, first.exact.Visited)

	rep.layer["solve.solve_s"] = p50 / 1e3
	rep.layer["solve.graph_I"] = float64(first.graph.Interference)
	rep.layer["solve.sinr_I"] = float64(first.sinr.Interference)
	runtimeLayer(rep, ms0, ms1, attempted)
	if !opts.trace {
		return rep
	}
	// Per-layer figures from the traced rounds.
	var gS, sS, eS, trWall []float64
	var trIters, trExactVisited, trSinrIters int64
	for _, j := range traced {
		gS, sS, eS = append(gS, j.graphS), append(sS, j.sinrS), append(eS, j.exactS)
		trWall = append(trWall, j.wallS)
		trIters += int64(sz.graphIters)
		trSinrIters += int64(sz.sinrIters)
		trExactVisited += j.exact.Visited
	}
	wallNS := sum(trWall) * 1e9
	rep.layer["opt.anneal_graph_s"] = gated(gS, 0.5)
	rep.layer["opt.anneal_sinr_s"] = gated(sS, 0.5)
	rep.layer["opt.exact_s"] = gated(eS, 0.5)
	rep.layer["opt.exact_visited"] = float64(first.exact.Visited)
	measNS := float64(coreSt.busyNS() + physSt.busyNS())
	rep.layer["opt.self_frac"] = ratio(wallNS-measNS, wallNS)
	rep.layer["core.calls_per_op"] = ratio(float64(coreSt.calls.Load()), float64(trIters+trExactVisited))
	rep.layer["core.call_us_mean"] = ratio(float64(coreSt.timedNS.Load())/1e3, float64(coreSt.timed.Load()))
	rep.layer["core.setradius_us_mean"] = ratio(float64(coreSt.setNS.Load())/1e3, float64(coreSt.setRadius.Load()))
	rep.layer["core.move_us_mean"] = ratio(float64(coreSt.moveNS.Load())/1e3, float64(coreSt.moves.Load()))
	rep.layer["core.busy_frac"] = ratio(float64(coreSt.busyNS()), wallNS)
	rep.layer["phys.calls_per_iter"] = ratio(float64(physSt.calls.Load()), float64(trSinrIters))
	rep.layer["phys.setradius_us_mean"] = ratio(float64(physSt.setNS.Load())/1e3, float64(physSt.setRadius.Load()))
	rep.layer["phys.busy_frac"] = ratio(float64(physSt.busyNS()), wallNS)
	rep.layer["trace.overhead_cpu_frac"] = ratio(float64(trCPU.Microseconds())/float64(3*len(traced)), cpuOp) - 1
	if tailOK(len(trWall), 0.5) {
		rep.layer["trace.overhead_p50_frac"] = ratio(median(trWall)*1e3, p50) - 1
	}
	self := selfTimes(t.snapshot())
	rep.note("solve: traced self time s: anneal_graph=%.3f anneal_sinr=%.3f exact=%.3f (over %d traced rounds)",
		float64(self["opt.anneal_graph"])/1e9, float64(self["opt.anneal_sinr"])/1e9, float64(self["opt.exact"])/1e9, len(traced))
	writeSpans(rep, t, opts)
	return rep
}

// checkSolve recomputes every reported interference with the naive
// oracle on the returned radii and returns the number of failed jobs.
func checkSolve(rep *report, in solveInst, j solveJobs) int64 {
	var failed int64
	if got := oracle.Interference(in.pts, j.graph.Radii).Max(); got != j.graph.Interference {
		failed++
		rep.fail("solve: graph anneal reports I=%d, oracle.Interference gives %d", j.graph.Interference, got)
	}
	if !oracle.Feasible(in.pts, j.graph.Radii) {
		failed++
		rep.fail("solve: graph anneal radii break UDG connectivity")
	}
	if got := oracle.PhysLevels(in.pts, j.sinr.Radii, phys.Default()).Max(); got != j.sinr.Interference {
		failed++
		rep.fail("solve: SINR anneal reports I=%d, oracle.PhysLevels gives %d", j.sinr.Interference, got)
	}
	if got := oracle.Interference(in.chain, j.exact.Radii).Max(); got != j.exact.Interference || !j.exact.Exact {
		failed++
		rep.fail("solve: exact reports I=%d (exact=%v), oracle.Interference gives %d", j.exact.Interference, j.exact.Exact, got)
	}
	return failed
}
