package harness

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strings"
	"time"
)

// resultLine is the last line of a single run's output: the form the
// benchmark's driver reads.
type resultLine struct {
	Correct   bool              `json:"correct"`
	Attempted uint64            `json:"attempted"`
	Failed    uint64            `json:"failed"`
	Metrics   map[string]Metric `json:"metrics"`
}

// ErrVerifier reports a run whose verifier failed: its numbers are not
// printed.
var ErrVerifier = errors.New("verifier failed: numbers withheld")

// Single runs one workload once, prints the environment record and the
// metric table, and ends with the result line. A run whose verifier
// failed prints what went wrong and a result line without metrics, and
// returns ErrVerifier.
func Single(w io.Writer, opts Options) error {
	res, err := Run(opts)
	if err != nil {
		return err
	}
	printResult(w, res)
	line := resultLine{Correct: res.Correct(), Attempted: res.Attempted, Failed: res.Failed, Metrics: res.Metrics}
	if !res.Correct() {
		line.Metrics = map[string]Metric{}
	}
	out, err := json.Marshal(line)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "%s\n", out)
	if !res.Correct() {
		return ErrVerifier
	}
	return nil
}

func printResult(w io.Writer, res *Result) {
	mode := "end-to-end (untraced)"
	defs := EndToEnd
	if res.Traced {
		mode, defs = "per-layer (traced)", PerLayer
	}
	fmt.Fprintf(w, "# smcbench %s seed=%d %s\n", res.Workload, res.Seed, mode)
	keys := make([]string, 0, len(res.Env))
	for k := range res.Env {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		fmt.Fprintf(w, "#   %-17s %s\n", k, res.Env[k])
	}
	fmt.Fprintf(w, "# verifier: %d deliveries expected, %d failed\n", res.Attempted, res.Failed)
	for _, p := range res.Problems {
		fmt.Fprintf(w, "# FAILED: %s\n", p)
	}
	if !res.Correct() {
		return
	}
	for _, d := range defs {
		m := res.Metrics[d.Name]
		fmt.Fprintf(w, "%-44s %16.4f %s\n", d.Name, m.Value, m.Unit)
	}
}

// child runs this binary once more, as its own process, so that every
// run starts from the same heap and ru_maxrss is the run's own. It
// echoes the child's report and returns the parsed result line.
func child(w io.Writer, workload string, seed int64, seconds float64, traced bool, outDir string) (resultLine, error) {
	var line resultLine
	self, err := os.Executable()
	if err != nil {
		return line, err
	}
	trace := "0"
	if traced {
		trace = "1"
	}
	cmd := exec.Command(self, "--workload", workload, "--seed", fmt.Sprint(seed),
		"--seconds", fmt.Sprint(seconds), "--trace", trace, "--out", outDir)
	var stdout bytes.Buffer
	cmd.Stdout, cmd.Stderr = &stdout, os.Stderr
	runErr := cmd.Run() // Run waits for the child to end
	if w != nil {
		_, _ = w.Write(stdout.Bytes())
	}
	lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &line); err != nil {
		return line, fmt.Errorf("%s: no result line (%v): %v", workload, runErr, err)
	}
	if runErr != nil || !line.Correct {
		return line, fmt.Errorf("%s seed %d: %w", workload, seed, ErrVerifier)
	}
	return line, nil
}

// Suite runs every workload untraced, then traced, prints the metric
// tables and writes them all to <outDir>/results.json. It stops at the
// first run whose verifier fails.
func Suite(w io.Writer, seed int64, seconds float64, outDir string) error {
	type entry struct {
		Workload string     `json:"workload"`
		Traced   bool       `json:"traced"`
		Result   resultLine `json:"result"`
	}
	var all []entry
	for _, traced := range []bool{false, true} {
		for _, name := range Workloads() {
			line, err := child(w, name, seed, seconds, traced, outDir)
			if err != nil {
				return err
			}
			all = append(all, entry{name, traced, line})
			fmt.Fprintln(w)
		}
	}
	out, err := json.MarshalIndent(map[string]any{"seed": seed, "seconds": seconds, "runs": all}, "", " ")
	if err != nil {
		return err
	}
	path := filepath.Join(outDir, "results.json")
	if err := os.WriteFile(path, append(out, '\n'), 0o644); err != nil {
		return err
	}
	fmt.Fprintf(w, "# wrote %s\n", path)
	return nil
}

// AA runs `sets` full sets of untraced runs back to back — per set and
// workload, `runs` runs on seeds seed, seed+1, … (the same seeds in
// every set) — and prints, per workload and end-to-end metric, each
// set's median, quartiles and spread (IQR/median, the driver's
// figure), and the largest gap between two sets' medians. A bound
// should be twice the largest gap and three times the largest spread.
func AA(w io.Writer, sets int, seed int64, seconds float64, outDir string) error {
	const runs = 10 // per workload and set, as the driver makes them
	fmt.Fprintf(w, "# smcbench A/A: %d sets x %d runs per workload, %v measured seconds per run, seeds %d..%d, %s\n",
		sets, runs, seconds, seed, seed+int64(runs)-1, time.Now().UTC().Format(time.RFC3339))
	// values[workload][metric][set] = that set's runs
	values := map[string]map[string][][]float64{}
	for s := 0; s < sets; s++ {
		for _, name := range Workloads() {
			for k := 0; k < runs; k++ {
				line, err := child(nil, name, seed+int64(k), seconds, false, outDir)
				if err != nil {
					return err
				}
				if values[name] == nil {
					values[name] = map[string][][]float64{}
				}
				for _, d := range EndToEnd {
					vs := values[name][d.Name]
					if len(vs) <= s {
						vs = append(vs, nil)
					}
					vs[s] = append(vs[s], line.Metrics[d.Name].Value)
					values[name][d.Name] = vs
				}
			}
			fmt.Fprintf(w, "# set %d %s done\n", s+1, name)
		}
	}
	worstGap, worstSpread := map[string]float64{}, map[string]float64{}
	for _, name := range Workloads() {
		fmt.Fprintf(w, "\n%s\n", name)
		for _, d := range EndToEnd {
			var medians []float64
			for s, vs := range values[name][d.Name] {
				q1, q3 := Quartiles(vs)
				med, spread := Median(vs), Spread(vs)
				medians = append(medians, med)
				worstSpread[d.Name] = max(worstSpread[d.Name], spread)
				fmt.Fprintf(w, "  %-22s set %d  median %14.4f  q1 %14.4f  q3 %14.4f  spread %6.2f%%\n",
					d.Name, s+1, med, q1, q3, 100*spread)
			}
			gap := 0.0
			for i := range medians {
				for j := i + 1; j < len(medians); j++ {
					if lo := min(medians[i], medians[j]); lo > 0 {
						gap = max(gap, (max(medians[i], medians[j])-lo)/lo)
					}
				}
			}
			worstGap[d.Name] = max(worstGap[d.Name], gap)
			fmt.Fprintf(w, "  %-22s largest gap between set medians %6.2f%%\n", d.Name, 100*gap)
		}
	}
	fmt.Fprintf(w, "\nworst over workloads (a bound must cover 2 x gap and 3 x spread)\n")
	for _, d := range EndToEnd {
		fmt.Fprintf(w, "  %-22s gap %6.2f%%  spread %6.2f%%\n", d.Name, 100*worstGap[d.Name], 100*worstSpread[d.Name])
	}
	return nil
}

// Manifest is BENCHMARK.json.
type Manifest struct {
	Command    []string         `json:"command"`
	Paths      []string         `json:"paths"`
	RunSeconds int              `json:"run_seconds"`
	Workloads  []ManifestLoad   `json:"workloads"`
	EndToEnd   []ManifestMetric `json:"end_to_end"`
	PerLayer   []ManifestMetric `json:"per_layer"`
}

// ManifestLoad is one workload of the manifest.
type ManifestLoad struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

// ManifestMetric is one metric of the manifest; Bound is set on
// end-to-end metrics only.
type ManifestMetric struct {
	Name   string   `json:"name"`
	Unit   string   `json:"unit"`
	Better string   `json:"better"`
	Bound  *float64 `json:"bound,omitempty"`
}

// RunSeconds is the measured time the driver asks of every run.
const RunSeconds = 28

// WriteManifest prints BENCHMARK.json as this build defines it.
func WriteManifest(w io.Writer) error {
	m := Manifest{
		Command:    []string{"bash", "benchmark/run.sh"},
		Paths:      []string{"benchmark"},
		RunSeconds: RunSeconds,
	}
	for _, name := range Workloads() {
		m.Workloads = append(m.Workloads, ManifestLoad{name, WorkloadWhy(name)})
	}
	for _, d := range EndToEnd {
		m.EndToEnd = append(m.EndToEnd, ManifestMetric{d.Name, d.Unit, d.Better, &d.Bound})
	}
	for _, d := range PerLayer {
		m.PerLayer = append(m.PerLayer, ManifestMetric{d.Name, d.Unit, d.Better, nil})
	}
	out, err := json.MarshalIndent(m, "", "  ")
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", out)
	return err
}
