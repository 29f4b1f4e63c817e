// Command bench is the repository's benchmark: five workloads over the
// simulated stack, host-time cost per wire packet with a noise-floor
// estimator, exact event/allocation counts, virtual-time goodput and
// message latency, and on -trace 1 a per-layer ledger. See README.md.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"os/exec"
	"runtime"
	"sort"
	"strings"
	"time"
)

// calibratedSeconds is the -seconds value at which sizing.scale is 1:
// seven timed repetitions of a little over one second each.
const calibratedSeconds = 8

// timedReps is k, the timed repetitions per workload.
const timedReps = 7

// report is the driver-facing result: the last line of standard output.
type report struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	var (
		name    = flag.String("workload", "all", "workload to run, or all")
		seed    = flag.Int64("seed", 1, "workload seed")
		seconds = flag.Float64("seconds", calibratedSeconds, "timed seconds per workload; scales every timed window")
		trace   = flag.Int("trace", 0, "1 runs the traced pass and reports the per-layer metrics")
		aa      = flag.Int("aa", 0, "self-check: two alternating sets of N untraced runs, compared against the bounds")
		quick   = flag.Bool("quick", false, "tiny sizes (tests)")
	)
	flag.Parse()
	if flag.NArg() > 0 || *seconds <= 0 {
		fmt.Fprintln(os.Stderr, "usage: bench [-workload name|all] [-seed n] [-seconds s] [-trace 0|1] [-aa n]")
		os.Exit(2)
	}

	ws := workloads
	if *name != "all" {
		w, ok := workloadByName(*name)
		if !ok {
			fmt.Fprintf(os.Stderr, "bench: unknown workload %q\n", *name)
			os.Exit(2)
		}
		ws = []spec{w}
	}
	z := sizing{reps: timedReps, scale: *seconds / calibratedSeconds}
	if *quick {
		z = quickSizing
	}

	printHost()
	ok := true
	switch {
	case *aa > 0:
		ok = selfCheck(ws, *seed, *seconds, *quick, *aa)
	case *trace != 0:
		log := &spanLog{t0: time.Now()}
		var ts []*traced
		for _, w := range ws {
			ts = append(ts, runTraced(w, *seed, z, log))
		}
		if err := log.write(traceOut); err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			ok = false
		}
		fmt.Printf("spans: %d written to %s\n", len(log.spans), traceOut)
		for _, t := range ts {
			ok = printTraced(t) && ok
		}
	default:
		for _, res := range runUntraced(ws, *seed, z) {
			ok = printResult(res) && ok
		}
	}
	if !ok {
		os.Exit(1)
	}
}

// traceOut is where the traced pass writes its span log, relative to the
// working directory (bench/ under `go run -C bench .`).
var traceOut = "out/trace.json"

// quickSizing keeps the whole suite to a few seconds: two timed
// repetitions of a fiftieth of the calibrated window.
var quickSizing = sizing{reps: 2, scale: 0.02, quick: true}

func printHost() {
	gogc := os.Getenv("GOGC")
	if gogc == "" {
		gogc = "100 (default)"
	}
	fmt.Printf("host: nproc=%d GOMAXPROCS=%d %s GOGC=%s\n",
		runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), gogc)
}

// printResult prints a workload's table and its JSON line, and reports
// whether every correctness check passed.
func printResult(res *result) bool {
	fmt.Printf("\n== %s  sim_digest=%016x  ops=%d failed_ops=%d  pkts/rep=%d  msgs=%d\n",
		res.workload, res.digest, res.ops, res.failed, res.reps[0].d.pkts, res.reps[0].out.msgs)
	for _, e := range res.errs {
		fmt.Printf("FAIL %s: %s\n", res.workload, e)
	}
	if res.noisyRep >= 0 {
		fmt.Printf("WARNING %s: rep spread %.3f exceeds %.2f; noisiest is rep %d\n",
			res.workload, res.spread, noisySpread, res.noisyRep)
	}
	notes := map[string]string{}
	for name, f := range map[string]func(*rep) float64{
		"wall_ns_per_pkt": func(r *rep) float64 { return r.perPkt(sum(r.window)) },
		"setup_s":         func(r *rep) float64 { return sum(r.setup) / 1e9 },
	} {
		s := sorted(res.timedValues(f))
		notes[name] = fmt.Sprintf("whole reps: n=%d min=%.4f median=%.4f max=%.4f", len(s), s[0], quantile(s, 0.5), s[len(s)-1])
	}
	notes["sim_msg_p50_us"] = fmt.Sprintf("n=%d", res.reps[0].out.msgs)
	notes["sim_msg_p99_us"] = notes["sim_msg_p50_us"]
	printMetrics(res.metrics, notes)
	fmt.Printf("  unscaled wall per rep %.1f ns/pkt; probe slowdown per rep %.3f\n",
		res.timedValues(func(r *rep) float64 { return r.perPkt(r.rawWindow) }),
		res.timedValues(func(r *rep) float64 { return r.slowdown }))
	emit(report{Correct: len(res.errs) == 0, Attempted: res.ops, Failed: res.failed, Metrics: res.metrics})
	return len(res.errs) == 0
}

// printMetrics prints every metric with its unit, and a note beside the
// ones that have one.
func printMetrics(ms map[string]metric, notes map[string]string) {
	names := make([]string, 0, len(ms))
	for n := range ms {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Printf("  %-30s %14.4f %-6s %s\n", n, ms[n].Value, ms[n].Unit, notes[n])
	}
}

func emit(r report) {
	b, err := json.Marshal(r)
	if err != nil {
		panic(err) // a report holds only finite numbers and strings
	}
	fmt.Println(string(b))
}

// printTraced prints a workload's per-layer table and its JSON line.
func printTraced(t *traced) bool {
	fmt.Printf("\n== %s (traced)  ops=%d failed_ops=%d\n", t.workload, t.ops, t.failed)
	for _, e := range t.errs {
		fmt.Printf("FAIL %s: %s\n", t.workload, e)
	}
	printMetrics(t.metrics, nil)
	for _, line := range t.info {
		fmt.Printf("  %s\n", line)
	}
	emit(report{Correct: len(t.errs) == 0, Attempted: t.ops, Failed: t.failed, Metrics: t.metrics})
	return len(t.errs) == 0
}

// endToEnd lists the end-to-end metrics with the direction and bound
// BENCHMARK.json gives them; bench_test.go holds the two together.
var endToEnd = []struct {
	name   string
	higher bool // higher is better
	bound  float64
}{
	{"wall_ns_per_pkt", false, 0.15},
	{"setup_s", false, 0.25},
	{"events_per_pkt", false, 0.02},
	{"allocs_per_pkt", false, 0.02},
	{"alloc_bytes_per_pkt", false, 0.02},
	{"live_heap_mb", false, 0.05},
	{"sim_goodput_gbps", true, 0.02},
	{"sim_msg_p50_us", false, 0.08},
	{"sim_msg_p99_us", false, 0.12},
}

// selfCheck runs two alternating sets of n untraced runs of this same
// binary, every workload of every run in a process of its own as the
// acceptance check does, run i of either set on seed+i. It holds them to
// the rule that check applies to two commits: within each set the
// quartile spread of every metric but setup_s stays inside its bound, and
// the two medians differ by no more than the bound.
func selfCheck(ws []spec, seed int64, seconds float64, quick bool, n int) bool {
	exe, err := os.Executable()
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench: -aa:", err)
		return false
	}
	vals := map[string]*[2][]float64{} // "workload metric" -> per-set values
	ok := true
	for i := 0; i < 2*n; i++ {
		s := seed + int64(i/2)
		fmt.Printf("aa: run %d of %d (set %c, seed %d)\n", i+1, 2*n, 'A'+i%2, s)
		for _, w := range ws {
			args := []string{"-workload", w.name, "-seed", fmt.Sprint(s), "-seconds", fmt.Sprint(seconds)}
			if quick {
				args = append(args, "-quick")
			}
			out, err := exec.Command(exe, args...).Output()
			lines := strings.Split(strings.TrimSpace(string(out)), "\n")
			var r report
			if jerr := json.Unmarshal([]byte(lines[len(lines)-1]), &r); err != nil || jerr != nil || !r.Correct {
				fmt.Printf("FAIL %s seed %d: run error %v, parse error %v, correct %v\n", w.name, s, err, jerr, r.Correct)
				ok = false
				continue
			}
			for name, m := range r.Metrics {
				key := w.name + " " + name
				if vals[key] == nil {
					vals[key] = &[2][]float64{}
				}
				vals[key][i%2] = append(vals[key][i%2], m.Value)
			}
		}
	}
	if !ok {
		return false
	}
	fmt.Printf("\n%-14s %-20s %12s %12s %8s %8s %8s %6s\n",
		"workload", "metric", "median A", "median B", "gap", "spread A", "spread B", "bound")
	for _, w := range ws {
		for _, e := range endToEnd {
			v := vals[w.name+" "+e.name]
			a, b := median(v[0]), median(v[1])
			gap := (b - a) / a
			if e.higher {
				gap = -gap
			}
			var spread [2]float64
			for set := range spread {
				q1, q3 := quartiles(v[set])
				spread[set] = (q3 - q1) / median(v[set])
			}
			verdict := ""
			if math.Abs(gap) > e.bound || (e.name != "setup_s" && math.Max(spread[0], spread[1]) > e.bound) {
				verdict, ok = "  BREACH", false
			}
			fmt.Printf("%-14s %-20s %12.4f %12.4f %+8.4f %8.4f %8.4f %6.2f%s\n",
				w.name, e.name, a, b, gap, spread[0], spread[1], e.bound, verdict)
		}
	}
	return ok
}
