package main

import "time"

// sizes are the instance and load sizes of every workload. fullSize is
// what the benchmark runs; toySize keeps the smoke tests fast.
type sizes struct {
	// samples is the least number of values behind every median the
	// run reports (setup_s, p50_ms): 21 leaves ten on each side of it.
	// Set-ups and rounds repeat until there are that many.
	samples int

	// ingest
	ingestBoots  int     // measured boots; further boots only count towards setup_s
	ingestN      int     // session size
	ingestSide   float64 // field side (about 1 node per unit²)
	ingestRound  int     // mutations per closed-loop round
	ingestWindow int     // mutations in flight across both connections
	ingestWarm   int     // warm-up mutations (part of set-up)

	// live
	liveRuns      int // independent boots per run; the window is split between them
	liveN         int
	liveSide      float64
	liveSubs      int
	liveMoveRate  float64       // Poisson moves per second
	liveChurnRate float64       // joins per second (and as many leaves)
	liveReadRate  float64       // full Nodes reads per second
	liveWarm      time.Duration // open-loop warm-up (part of set-up)
	liveSettle    time.Duration // mobility model time stepped before the session is created

	// solve
	solveN     int
	solveSide  float64
	graphIters int
	sinrIters  int
	exactN     int     // nodes of the exponential chain for the exact search
	exactSpan  float64 // the chain's extent (gen.ExpChain's maxExtent)
}

var fullSize = sizes{
	samples: 21,

	ingestBoots: 3, ingestN: 8192, ingestSide: 90.5, ingestRound: 20_000, ingestWindow: 768, ingestWarm: 5_000,

	liveRuns: 6, liveN: 4096, liveSide: 64, liveSubs: 1200,
	liveMoveRate: 600, liveChurnRate: 4, liveReadRate: 20, liveWarm: 500 * time.Millisecond, liveSettle: 30 * time.Second,

	solveN: 4096, solveSide: 64, graphIters: 400, sinrIters: 400, exactN: 12, exactSpan: 3,
}

var toySize = sizes{
	samples: 3,

	ingestBoots: 2, ingestN: 256, ingestSide: 16, ingestRound: 2000, ingestWindow: 64, ingestWarm: 200,

	liveRuns: 2, liveN: 256, liveSide: 16, liveSubs: 60,
	liveMoveRate: 600, liveChurnRate: 4, liveReadRate: 20, liveWarm: 100 * time.Millisecond, liveSettle: time.Second,

	solveN: 256, solveSide: 16, graphIters: 200, sinrIters: 200, exactN: 8, exactSpan: 1,
}
