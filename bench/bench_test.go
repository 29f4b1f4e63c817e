package main

import (
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
	"testing"
	"time"
)

// benchmarkJSON is the part of ../BENCHMARK.json the tests read.
type benchmarkJSON struct {
	Workloads []struct{ Name string }
	EndToEnd  []struct {
		Name, Unit, Better string
		Bound              float64
	} `json:"end_to_end"`
	PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
}

func loadBenchmarkJSON(t *testing.T) benchmarkJSON {
	t.Helper()
	b, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var bj benchmarkJSON
	if err := json.Unmarshal(b, &bj); err != nil {
		t.Fatal(err)
	}
	return bj
}

func keys(m map[string]metric) []string {
	var ks []string
	for k := range m {
		ks = append(ks, k)
	}
	sort.Strings(ks)
	return ks
}

var nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]*$`)

// TestNamesMatchBenchmarkJSON runs every workload once in each mode at
// quick sizes and holds the emitted names, units, directions and bounds
// to BENCHMARK.json: none extra, none missing.
func TestNamesMatchBenchmarkJSON(t *testing.T) {
	bj := loadBenchmarkJSON(t)

	var wantW []string
	for _, w := range bj.Workloads {
		wantW = append(wantW, w.Name)
	}
	var gotW []string
	for _, w := range workloads {
		gotW = append(gotW, w.name)
	}
	if strings.Join(gotW, " ") != strings.Join(wantW, " ") {
		t.Errorf("workloads %v, BENCHMARK.json has %v", gotW, wantW)
	}

	wantE := map[string]string{}
	for i, e := range bj.EndToEnd {
		wantE[e.Name] = e.Unit
		if i >= len(endToEnd) || endToEnd[i].name != e.Name || endToEnd[i].bound != e.Bound ||
			endToEnd[i].higher != (e.Better == "higher") {
			t.Errorf("end_to_end[%d] = %+v does not match the endToEnd table", i, e)
		}
	}
	if len(endToEnd) != len(bj.EndToEnd) {
		t.Errorf("endToEnd has %d entries, BENCHMARK.json %d", len(endToEnd), len(bj.EndToEnd))
	}
	wantL := map[string]string{}
	for _, e := range bj.PerLayer {
		wantL[e.Name] = e.Unit
	}

	check := func(what string, got map[string]metric, want map[string]string) {
		t.Helper()
		for _, name := range keys(got) {
			if !nameRE.MatchString(name) {
				t.Errorf("%s: name %q has characters outside [A-Za-z0-9_.-]", what, name)
			}
			if unit, ok := want[name]; !ok {
				t.Errorf("%s: emits %s, which BENCHMARK.json does not list", what, name)
			} else if unit != got[name].Unit {
				t.Errorf("%s: %s has unit %q, BENCHMARK.json says %q", what, name, got[name].Unit, unit)
			}
			if v := got[name].Value; math.IsNaN(v) || math.IsInf(v, 0) {
				t.Errorf("%s: %s = %v", what, name, v)
			}
		}
		for name := range want {
			if _, ok := got[name]; !ok {
				t.Errorf("%s: BENCHMARK.json lists %s, which is not emitted", what, name)
			}
		}
	}
	for _, res := range runUntraced(workloads, 1, quickSizing) {
		if len(res.errs) > 0 {
			t.Errorf("%s: %v", res.workload, res.errs)
		}
		check(res.workload, res.metrics, wantE)
		for _, name := range keys(res.metrics) {
			if res.metrics[name].Value == 0 {
				t.Errorf("%s: end-to-end metric %s is 0", res.workload, name)
			}
		}
	}
	log := &spanLog{t0: time.Now()}
	for _, w := range workloads {
		tr := runTraced(w, 1, quickSizing, log)
		if len(tr.errs) > 0 {
			t.Errorf("%s traced: %v", w.name, tr.errs)
		}
		check(w.name+" traced", tr.metrics, wantL)
	}
	path := filepath.Join(t.TempDir(), "out", "trace.json")
	if err := log.write(path); err != nil {
		t.Fatal(err)
	}
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var spans []span
	if err := json.Unmarshal(b, &spans); err != nil {
		t.Fatal(err)
	}
	for _, s := range spans {
		if s.EndNs < s.StartNs || s.Parent >= s.ID {
			t.Fatalf("span %+v: ends before it starts, or precedes its parent", s)
		}
	}
}

func TestEstimatorPicksSecondSmallest(t *testing.T) {
	if got := secondSmallest([]float64{5, 1, 3, 2, 9, 8, 7}); got != 2 {
		t.Errorf("secondSmallest = %v, want 2", got)
	}
	if got := secondSmallest([]float64{4}); got != 4 {
		t.Errorf("secondSmallest of one value = %v, want it back", got)
	}
	// Per step: {3,1,2} -> 2 and {10,30,20} -> 20.
	reps := []rep{{window: []float64{3, 10}}, {window: []float64{1, 30}}, {window: []float64{2, 20}}}
	if got := floorSum(reps, windowOf); got != 22 {
		t.Errorf("floorSum = %v, want 22", got)
	}
}

// TestQuartilesMatchPython pins quartiles to the values Python's
// statistics.quantiles(xs, n=4) prints for the same inputs.
func TestQuartilesMatchPython(t *testing.T) {
	for _, c := range []struct {
		xs     []float64
		q1, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 8.25},
		{[]float64{7, 1, 3, 9, 5, 11, 13}, 3, 11},
		{[]float64{2, 1}, 0.75, 2.25},
	} {
		if q1, q3 := quartiles(c.xs); q1 != c.q1 || q3 != c.q3 {
			t.Errorf("quartiles(%v) = %v, %v; Python gives %v, %v", c.xs, q1, q3, c.q1, c.q3)
		}
	}
}

// TestQuickRunsRepeat is the determinism gate: two runs of one seed agree
// on the digest and on every metric that is a count or a virtual time.
func TestQuickRunsRepeat(t *testing.T) {
	a := runUntraced(workloads, 3, quickSizing)
	b := runUntraced(workloads, 3, quickSizing)
	other := runUntraced(workloads[:1], 4, quickSizing)
	for i := range a {
		if a[i].digest != b[i].digest {
			t.Errorf("%s: digests %016x and %016x", a[i].workload, a[i].digest, b[i].digest)
		}
		for _, name := range []string{"events_per_pkt", "sim_goodput_gbps", "sim_msg_p50_us", "sim_msg_p99_us"} {
			if x, y := a[i].metrics[name].Value, b[i].metrics[name].Value; x != y {
				t.Errorf("%s: %s = %v then %v", a[i].workload, name, x, y)
			}
		}
	}
	if a[0].digest == other[0].digest {
		t.Errorf("%s: seeds 3 and 4 give the same digest; the seed does not reach the workload", a[0].workload)
	}
}

func TestNoisyRepIsNamed(t *testing.T) {
	mk := func(ns float64) rep { return rep{window: []float64{ns}, setup: []float64{1}, d: counts{pkts: 1}} }
	quiet := summarize("w", []rep{mk(100), mk(100), mk(101), mk(100), mk(102), mk(100), mk(101), mk(100)})
	if quiet.noisyRep != -1 {
		t.Errorf("quiet run names rep %d noisy", quiet.noisyRep)
	}
	noisy := summarize("w", []rep{mk(100), mk(100), mk(150), mk(100), mk(400), mk(100), mk(160), mk(100)})
	if noisy.noisyRep != 4 {
		t.Errorf("noisy run names rep %d, want 4", noisy.noisyRep)
	}
}

func TestShardSpeedupSkippedOnOneCPU(t *testing.T) {
	ran := false
	two := func() cost { ran = true; return cost{ns: 1} }
	if line := shardSpeedup(1, cost{ns: 2}, two); ran || !strings.Contains(line, "skipped") {
		t.Errorf("one CPU: %q, ran=%v", line, ran)
	}
	if line := shardSpeedup(2, cost{ns: 2}, two); !ran || strings.Contains(line, "skipped") {
		t.Errorf("two CPUs: %q, ran=%v", line, ran)
	}
}
