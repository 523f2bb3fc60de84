// Command smcbench is the repository's benchmark: it deploys a real
// smc.Cell in-process, drives one of four workloads against it,
// verifies every delivery and prints the metrics BENCHMARK.json names.
//
//	smcbench --workload ward_fanout --seed 1 --seconds 28 --trace 0
//	smcbench                 # every workload, untraced then traced
//	smcbench -aa 3           # three back-to-back sets, for the A/A spread
//
// The last line of a single run's standard output is one JSON object:
// {"correct":…,"attempted":…,"failed":…,"metrics":{name:{value,unit}}}.
package main

import (
	"flag"
	"fmt"
	"os"

	"github.com/amuse/smc/benchmark/harness"
)

func main() {
	var (
		workload = flag.String("workload", "", "workload to run: "+fmt.Sprint(harness.Workloads())+" (empty: the whole suite)")
		seed     = flag.Int64("seed", 1, "seed of the generated events and filters")
		seconds  = flag.Float64("seconds", harness.RunSeconds, "measured seconds per run (BENCHMARK.json's run_seconds)")
		trace    = flag.String("trace", "0", "1: record spans, run the layer probes, report per-layer metrics")
		outDir   = flag.String("out", "benchmark/out", "directory for traces, results and the durable log")
		aa       = flag.Int("aa", 0, "run this many full sets back to back and print the A/A spread")
		manifest = flag.Bool("manifest", false, "print BENCHMARK.json for this build's metrics and exit")
	)
	flag.Parse()
	if flag.NArg() > 0 {
		fmt.Fprintf(os.Stderr, "smcbench: unexpected argument %q\n", flag.Arg(0))
		os.Exit(2)
	}
	traced := *trace == "1" || *trace == "true"
	if !traced && *trace != "0" && *trace != "false" {
		fmt.Fprintf(os.Stderr, "smcbench: --trace wants 0 or 1, got %q\n", *trace)
		os.Exit(2)
	}

	var err error
	switch {
	case *manifest:
		err = harness.WriteManifest(os.Stdout)
	case *aa > 0:
		err = harness.AA(os.Stdout, *aa, *seed, *seconds, *outDir)
	case *workload == "":
		err = harness.Suite(os.Stdout, *seed, *seconds, *outDir)
	default:
		err = harness.Single(os.Stdout, harness.Options{
			Workload: *workload, Seed: *seed, Seconds: *seconds, Trace: traced, OutDir: *outDir,
		})
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "smcbench:", err)
		os.Exit(1)
	}
}
