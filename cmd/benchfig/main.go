// Command benchfig regenerates the paper's evaluation figures (§V,
// Fig. 4) and the §VI ablations as text series; EXPERIMENTS.md indexes
// the experiments. Throughput and latency of the event service itself
// are measured by the repository's benchmark, see benchmark/README.md.
//
// Usage:
//
//	benchfig -fig 4a          # Figure 4(a): response time vs payload
//	benchfig -fig 4b          # Figure 4(b): throughput vs payload
//	benchfig -fig link        # §V in-text link calibration
//	benchfig -fig fanout      # ablation: delay vs recipients
//	benchfig -fig quench      # ablation: quenching savings
//	benchfig -fig redelivery  # ablation: disconnect/redeliver cycle
//	benchfig -fig all -full   # everything, figure-quality sweeps
package main

import (
	"flag"
	"fmt"
	"os"

	"github.com/amuse/smc/internal/bench"
)

func main() {
	fig := flag.String("fig", "all", "figure to regenerate: 4a, 4b, link, fanout, quench, redelivery, all")
	full := flag.Bool("full", false, "figure-quality sweep (slower); default is a quick sweep")
	flag.Parse()
	if err := run(*fig, *full); err != nil {
		fmt.Fprintln(os.Stderr, "benchfig:", err)
		os.Exit(1)
	}
}

func run(fig string, full bool) error {
	opt := bench.Quick()
	if full {
		opt = bench.Full()
	}

	type job struct {
		name string
		fn   func(bench.Options) (bench.Result, error)
	}
	jobs := map[string]job{
		"4a":         {"Figure 4(a)", bench.Fig4aResponseTime},
		"4b":         {"Figure 4(b)", bench.Fig4bThroughput},
		"link":       {"Link baseline", bench.LinkBaseline},
		"fanout":     {"Fan-out ablation", bench.AblationFanout},
		"quench":     {"Quench ablation", bench.AblationQuench},
		"redelivery": {"Redelivery ablation", bench.AblationRedelivery},
	}
	order := []string{"link", "4a", "4b", "fanout", "quench", "redelivery"}

	var selected []string
	if fig == "all" {
		selected = order
	} else {
		if _, ok := jobs[fig]; !ok {
			return fmt.Errorf("unknown figure %q", fig)
		}
		selected = []string{fig}
	}

	for _, key := range selected {
		j := jobs[key]
		fmt.Fprintf(os.Stderr, "running %s...\n", j.name)
		res, err := j.fn(opt)
		if err != nil {
			return fmt.Errorf("%s: %w", j.name, err)
		}
		res.Fprint(os.Stdout)
		fmt.Println()
	}
	return nil
}
