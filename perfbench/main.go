// Command perfbench is the repository's end-to-end benchmark: it drives the
// paths users run (experiments.Sweep, experiments.Run,
// experiments.RunWorkload and the tdserve HTTP API) and reports the host cost
// of each, with an optional traced run that splits that cost into the repo's
// modules. See README.md in this directory for the workloads, the metrics and
// the reasoning behind them.
//
// Usage (from the repository root):
//
//	bash perfbench/run.sh --workload rotor-32 --seed 1 --seconds 20 --trace 0
//
// The last line of standard output is one JSON object:
// {"correct":…,"attempted":…,"failed":…,"metrics":{name:{value,unit}}}.
// Everything else (progress, the attribution report) goes to standard error.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"sort"
	"time"
)

const (
	// digestsPath is the committed output-digest table, relative to the
	// repository root the benchmark runs from.
	digestsPath = "perfbench/digests.json"
	// outDir receives CPU profiles and span dumps.
	outDir = ".bench_build"
)

func main() {
	os.Exit(run(os.Args[1:]))
}

func run(args []string) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	name := fs.String("workload", "", "workload name: "+workloadNames())
	seed := fs.Int64("seed", 1, "input seed (same seed, same inputs)")
	seconds := fs.Float64("seconds", 20, "measurement budget in seconds")
	trace := fs.Int("trace", 0, "0: end-to-end metrics; 1: traced run with per-layer metrics")
	update := fs.Bool("update-digests", false, "record this run's digest in "+digestsPath+" instead of checking it")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w, ok := workloadByName(*name)
	if !ok || fs.NArg() > 0 || (*trace != 0 && *trace != 1) || *seconds <= 0 {
		fmt.Fprintf(os.Stderr, "perfbench: need --workload (%s), --seconds > 0 and --trace 0|1\n", workloadNames())
		return 2
	}
	want, err := loadDigests(digestsPath)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 1
	}
	key := digestKey(w.name, *seed)
	b := &bench{w: w, sz: standardSizes, seed: *seed, budget: time.Duration(*seconds * float64(time.Second)), outDir: outDir}
	if !*update {
		b.want = want[key]
	}
	res, err := b.run(*trace == 1)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 1
	}
	if *update && res.Correct {
		if err := saveDigest(digestsPath, want, key, b.digest); err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
			return 1
		}
	}
	printSummary(w.name, res)
	out, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 1
	}
	fmt.Println(string(out))
	return 0
}

// metric is one reported number with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's last output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// printSummary writes the run's metrics as a table on standard error, with
// failed_frac, which the JSON line carries as failed/attempted.
func printSummary(name string, r *result) {
	fmt.Fprintf(os.Stderr, "== %s: attempted=%d failed=%d failed_frac=%.4g correct=%v (%d CPUs)\n",
		name, r.Attempted, r.Failed, float64(r.Failed)/float64(max(r.Attempted, 1)), r.Correct, runtime.NumCPU())
	keys := make([]string, 0, len(r.Metrics))
	for k := range r.Metrics {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		fmt.Fprintf(os.Stderr, "   %-28s %14.6g %s\n", k, r.Metrics[k].Value, r.Metrics[k].Unit)
	}
}
