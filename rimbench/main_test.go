package main

import (
	"bytes"
	"encoding/json"
	"os"
	"strings"
	"testing"
)

// benchmarkJSON is the part of ../BENCHMARK.json the tests read.
type benchmarkJSON struct {
	Workloads []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name, Unit, Better string
		Bound              float64
	} `json:"end_to_end"`
	PerLayer []struct {
		Name, Unit, Better string
	} `json:"per_layer"`
}

func loadBenchmarkJSON(t *testing.T) benchmarkJSON {
	t.Helper()
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatalf("read BENCHMARK.json: %v", err)
	}
	var bj benchmarkJSON
	if err := json.Unmarshal(b, &bj); err != nil {
		t.Fatalf("parse BENCHMARK.json: %v", err)
	}
	return bj
}

func TestCatalogMatchesBenchmarkJSON(t *testing.T) {
	bj := loadBenchmarkJSON(t)
	var wls []string
	for _, w := range bj.Workloads {
		wls = append(wls, w.Name)
	}
	if got := strings.Join(wls, ","); got != "ingest,live,solve" {
		t.Errorf("workloads %s, want ingest,live,solve", got)
	}
	if len(bj.EndToEnd) != len(e2eMetrics) {
		t.Fatalf("BENCHMARK.json has %d end-to-end metrics, the catalogue %d", len(bj.EndToEnd), len(e2eMetrics))
	}
	for i, m := range bj.EndToEnd {
		if m.Name != e2eMetrics[i].name || m.Unit != e2eMetrics[i].unit {
			t.Errorf("end_to_end[%d] = %s/%s, catalogue %s/%s", i, m.Name, m.Unit, e2eMetrics[i].name, e2eMetrics[i].unit)
		}
	}
	if len(bj.PerLayer) != len(layerMetrics) {
		t.Fatalf("BENCHMARK.json has %d per-layer metrics, the catalogue %d", len(bj.PerLayer), len(layerMetrics))
	}
	for i, m := range bj.PerLayer {
		if m.Name != layerMetrics[i].name || m.Unit != layerMetrics[i].unit {
			t.Errorf("per_layer[%d] = %s/%s, catalogue %s/%s", i, m.Name, m.Unit, layerMetrics[i].name, layerMetrics[i].unit)
		}
	}
}

// runToy runs a workload at toy size and decodes its result line.
func runToy(t *testing.T, workload, trace string) (result, string, int) {
	t.Helper()
	var out, errb bytes.Buffer
	opts := newOptions(workload, 7, 0.3, trace == "1", t.TempDir())
	opts.size = toySize
	code := execute(opts, &out, &errb)
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	var res result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		t.Fatalf("%s trace=%s: last line is not the result: %v\nstdout:\n%s\nstderr:\n%s", workload, trace, err, out.String(), errb.String())
	}
	return res, out.String() + errb.String(), code
}

func TestEveryWorkloadPrintsEveryMetric(t *testing.T) {
	bj := loadBenchmarkJSON(t)
	for _, w := range []string{"ingest", "live", "solve"} {
		for _, trace := range []string{"0", "1"} {
			t.Run(w+"/trace="+trace, func(t *testing.T) {
				res, out, code := runToy(t, w, trace)
				if code != 0 || !res.Correct || res.Failed != 0 || res.Attempted < 1 {
					t.Fatalf("exit %d, correct %v, attempted %d, failed %d\n%s", code, res.Correct, res.Attempted, res.Failed, out)
				}
				want := map[string]string{}
				if trace == "0" {
					for _, m := range bj.EndToEnd {
						want[m.Name] = m.Unit
					}
				} else {
					for _, m := range bj.PerLayer {
						want[m.Name] = m.Unit
					}
				}
				if len(res.Metrics) != len(want) {
					t.Errorf("%d metrics printed, want %d", len(res.Metrics), len(want))
				}
				for name, unit := range want {
					m, ok := res.Metrics[name]
					if !ok {
						t.Errorf("metric %s missing", name)
						continue
					}
					if m.Unit != unit {
						t.Errorf("metric %s unit %q, want %q", name, m.Unit, unit)
					}
					if trace == "0" && m.Value <= 0 {
						t.Errorf("end-to-end metric %s = %v, want > 0", name, m.Value)
					}
				}
				if !strings.Contains(out, "seed=7") {
					t.Errorf("the seed is not echoed:\n%s", out)
				}
			})
		}
	}
}

func TestDivergedFollowerFailsTheCheck(t *testing.T) {
	opts := options{workload: "ingest", seed: 3, seconds: 0.1, size: toySize, tmp: t.TempDir()}
	opts.inject.divergeFollower = true
	rep := runIngest(opts)
	if !hasProblem(rep, "follower differs from the leader") {
		t.Fatalf("a diverged follower passed the check; problems: %q", rep.problems)
	}
	var out, errb bytes.Buffer
	if code := emit(rep, opts, &out, &errb); code == 0 {
		t.Fatalf("emit exited 0 on a failed check")
	}
}

func TestDroppedEventFailsTheCheck(t *testing.T) {
	opts := options{workload: "live", seed: 3, seconds: 0.3, size: toySize, tmp: t.TempDir()}
	opts.inject.dropEvent = true
	rep := runLive(opts)
	if !hasProblem(rep, "the hub emitted") {
		t.Fatalf("a dropped event passed the check; problems: %q", rep.problems)
	}
}

func hasProblem(rep *report, sub string) bool {
	for _, p := range rep.problems {
		if strings.Contains(p, sub) {
			return true
		}
	}
	return false
}

func TestBadArguments(t *testing.T) {
	for _, args := range [][]string{
		{"--workload", "nope"},
		{"--workload", "solve", "--trace", "2"},
		{"--workload", "solve", "--seconds", "0"},
		{"--bogus"},
	} {
		var out, errb bytes.Buffer
		if code := run(args, &out, &errb); code != 2 || strings.Contains(out.String(), "{") {
			t.Errorf("%v: exit %d, stdout %q", args, code, out.String())
		}
	}
}

func TestPercentileNeedsTenBeyond(t *testing.T) {
	if tailOK(951, 0.99) || !tailOK(952, 0.99) {
		t.Errorf("tailOK: p99 needs 952 samples")
	}
	if tailOK(20, 0.5) || !tailOK(21, 0.5) {
		t.Errorf("tailOK: the median needs 21 samples")
	}
	if got := gated(make([]float64, 20), 0.5); got != 0 {
		t.Errorf("gated median of 20 samples = %v, want 0", got)
	}
	s := []float64{5, 1, 4, 2, 3}
	if got := median(s); got != 3 {
		t.Errorf("median = %v, want 3", got)
	}
	if got := pct(s, 1); got != 5 {
		t.Errorf("max = %v, want 5", got)
	}
}

func TestCoveredWithinUnionsOverlaps(t *testing.T) {
	iv := [][2]int64{{0, 10}, {5, 15}, {20, 30}, {40, 50}}
	if got := coveredWithin(iv, [][2]int64{{2, 45}}); got != 13+10+5 {
		t.Errorf("covered %d, want 28", got)
	}
}

func TestReplLagPairsBySequence(t *testing.T) {
	leader := []batchRec{{seq: 10, end: 100}, {seq: 20, end: 200}, {seq: 30, end: 300}}
	follower := []batchRec{{seq: 20, end: 1_000_250}, {seq: 30, end: 2_000_300}}
	got := replLag(leader, follower)
	if len(got) != 3 || got[0] != 1.00015 || got[2] != 2 {
		t.Errorf("lag %v", got)
	}
}

func TestSelfTimeSubtractsChildren(t *testing.T) {
	spans := []span{
		{ID: 1, Name: "batch", Start: 0, End: 100},
		{ID: 2, Parent: 1, Name: "store", Start: 10, End: 30},
		{ID: 3, Parent: 1, Name: "core", Start: 40, End: 90},
	}
	self := selfTimes(spans)
	if self["batch"] != 30 || self["store"] != 20 || self["core"] != 50 {
		t.Errorf("self times %v", self)
	}
}
