// Command juggler-benchrec records the repo's performance baseline into a
// JSON artifact: hot-path micro-benchmark numbers (ns/op, allocs/op for
// the event engine and the packet pool), the flow-scale datapath's
// per-packet cost at 1k/10k/100k concurrent reordered flows, its
// steady-state allocation counts, the forensics instrumentation overhead
// (the same loop with no telemetry sink vs a recording one — the nil-sink
// path is also gated to zero allocations), raw event-loop throughput, the
// wall-clock of one experiment sweep run serially vs on -j workers —
// re-checking on the way that both produce byte-identical tables — and
// the sharded receive datapath's shard_scaling record (the shardedrx
// workload at 1/2/4/8 execution lanes, with the byte-identity of every
// level's table re-checked the same way). The fleet telemetry sketch
// update path (fleet_sketch: quantile sketch + heavy-hitter Observe) and
// the fabric's per-packet event chain (fabric_hop: two ports and a delay
// switch) join both the micro section and the zero-alloc gate.
//
// Usage:
//
//	juggler-benchrec [-o BENCH_10.json] [-sweep fig13] [-quick] [-j 0]
//
// The committed BENCH_NN.json at the repo root is this command's output;
// CI regenerates it on every run and uploads it as an artifact. Numbers
// are host-dependent — the record embeds core count and GOMAXPROCS both
// globally and per wall-clock section (each section snapshots the env it
// actually ran under) so speedups can be read in context (a single-core
// host cannot show one). Three checks are host-independent and fatal: the
// serial and parallel sweep tables must be byte-identical, every
// shard-scaling level's table must be byte-identical, and the
// steady-state datapath loops (including the sharded per-epoch cycle,
// sharded_rx) must not allocate — a non-zero allocs-per-cycle count is a
// regression in the flow/segment recycling and exits 1.
package main

import (
	"flag"
	"fmt"
	"os"

	"juggler/internal/benchrec"
)

func main() {
	out := flag.String("o", "BENCH_10.json", "output path ('-' = stdout)")
	sweepID := flag.String("sweep", "fig13", "experiment to time serial vs parallel")
	quick := flag.Bool("quick", false, "time the quick (~10x smaller) sweep instead of full fidelity")
	workers := flag.Int("j", 0, "parallel width for the sweep timing (0 = one per core)")
	flag.Parse()

	rep, err := benchrec.Collect(*sweepID, *quick, *workers)
	if err != nil {
		fmt.Fprintln(os.Stderr, "juggler-benchrec:", err)
		os.Exit(1)
	}
	if !rep.Sweep.Identical {
		fmt.Fprintf(os.Stderr, "juggler-benchrec: %s table differs between serial and -j %d runs\n",
			rep.Sweep.Experiment, rep.Sweep.Workers)
		os.Exit(1)
	}
	if !rep.ShardScaling.Identical {
		fmt.Fprintf(os.Stderr, "juggler-benchrec: %s table differs across -shards levels\n",
			rep.ShardScaling.Experiment)
		os.Exit(1)
	}
	allocRegression := false
	for name, allocs := range rep.SteadyStateAllocs {
		if allocs != 0 {
			fmt.Fprintf(os.Stderr, "juggler-benchrec: steady-state %s allocates %.1f per cycle, want 0\n",
				name, allocs)
			allocRegression = true
		}
	}
	if allocRegression {
		os.Exit(1)
	}

	w := os.Stdout
	if *out != "-" {
		f, err := os.Create(*out)
		if err != nil {
			fmt.Fprintln(os.Stderr, "juggler-benchrec:", err)
			os.Exit(1)
		}
		defer f.Close()
		w = f
	}
	if err := rep.WriteJSON(w); err != nil {
		fmt.Fprintln(os.Stderr, "juggler-benchrec:", err)
		os.Exit(1)
	}
	if *out != "-" {
		last := rep.ShardScaling.Points[len(rep.ShardScaling.Points)-1]
		fmt.Printf("wrote %s (sweep %s: %.2fs serial, %.2fs with -j %d, %.2fx, identical tables; "+
			"flow scale 1k->100k %.2fx per packet, 0 steady-state allocs; "+
			"shardedrx %.2fx at %d lanes on %d CPUs, identical tables)\n",
			*out, rep.Sweep.Experiment, rep.Sweep.SerialSeconds,
			rep.Sweep.ParallelSeconds, rep.Sweep.Workers, rep.Sweep.Speedup,
			rep.FlowScaleRatio,
			last.Speedup, last.Shards, rep.ShardScaling.Env.NumCPU)
	}
}
