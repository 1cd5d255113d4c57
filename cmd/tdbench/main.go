// Command tdbench runs the headline simulator benchmarks (internal/bench)
// under the standard testing harness with allocation reporting, records the
// results in a tracked JSON file, and diffs them against the previous record
// so performance regressions show up in review rather than in production.
//
// Usage:
//
//	tdbench                     # run, diff against BENCH_simcore.json, rewrite it
//	tdbench -out other.json     # track a different file
//	tdbench -dry                # run and diff only, leave the file untouched
//	tdbench -count 9            # iterations per benchmark (default 5)
//	tdbench -gate               # check the committed file, run nothing
//
// Each benchmark runs -count times; the tracked ns/op is the MEDIAN of the
// iterations, with the minimum and the relative spread recorded alongside.
// Single-run numbers on a shared machine routinely wander ±20%, which once
// mis-flagged a "regression" that was pure scheduler noise (DESIGN.md §10);
// medians with a recorded spread make the tracked file trustworthy.
//
// The JSON file carries the current numbers under "benchmarks", the previous
// run's numbers under "previous", and the tdlint finding count under
// "lint_findings" — the zero-allocation claims recorded here are only
// trustworthy when the hotpath lint gate that enforces them is clean, so the
// two facts travel together and a dirty tree fails the run.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"sort"
	"testing"

	"github.com/rdcn-net/tdtcp/internal/bench"
	"github.com/rdcn-net/tdtcp/internal/lint"
)

// Record is one benchmark's tracked measurements. NsPerOp (and the
// EventsPerSec derived from it) is the median across the -count iterations;
// MinNsPerOp is the fastest iteration and SpreadPct the relative spread
// (max-min as a percentage of the median) — a large spread means the machine
// was noisy and the numbers should not be trusted for small deltas.
type Record struct {
	NsPerOp      float64 `json:"ns_per_op"`
	MinNsPerOp   float64 `json:"min_ns_per_op,omitempty"`
	SpreadPct    float64 `json:"spread_pct,omitempty"`
	BytesPerOp   int64   `json:"bytes_per_op"`
	AllocsPerOp  int64   `json:"allocs_per_op"`
	EventsPerOp  float64 `json:"events_per_op,omitempty"`
	EventsPerSec float64 `json:"events_per_sec,omitempty"`
}

// File is the on-disk shape of BENCH_simcore.json.
type File struct {
	Benchmarks map[string]Record `json:"benchmarks"`
	Previous   map[string]Record `json:"previous,omitempty"`
	// LintFindings is the tdlint finding count at recording time. The tracked
	// value must be zero: benchmark numbers from a tree that fails its own
	// static gates are not comparable.
	LintFindings int `json:"lint_findings"`
	// CPUs is runtime.NumCPU() at recording time. The sharded-speedup gate
	// only binds when the recording machine had enough cores for the four
	// engine workers to actually run in parallel; on a small box the ratio is
	// still recorded, just not enforced.
	CPUs int `json:"cpus,omitempty"`
}

// benchBody is one tracked benchmark: its record name and body.
type benchBody struct {
	Name string
	Body func(*testing.B)
}

var headline = append([]benchBody{
	{"EventLoop", bench.EventLoop},
	{"SimulatedWeek", bench.SimulatedWeek},
	{"SimulatedWeekSteady", bench.SimulatedWeekSteady},
	{"SimulatedWeekFlight", bench.SimulatedWeekFlight},
	{"SimulatedWeekSequential", bench.SimulatedWeekSequential},
	{"SimulatedWeekSharded", bench.SimulatedWeekSharded},
}, rotorScalingRungs()...)

// rotorScalingRungs names one record per rung of the rack-scaling ladder,
// "RotorScaling/<racks>".
func rotorScalingRungs() []benchBody {
	var rungs []benchBody
	for _, racks := range bench.RotorScalingRacks {
		rungs = append(rungs, benchBody{
			Name: fmt.Sprintf("RotorScaling/%d", racks),
			Body: func(b *testing.B) { bench.RotorScaling(b, racks) },
		})
	}
	return rungs
}

func main() {
	var (
		out   = flag.String("out", "BENCH_simcore.json", "tracked benchmark file to diff against and rewrite")
		dry   = flag.Bool("dry", false, "run and diff only; do not rewrite the file")
		count = flag.Int("count", 5, "iterations per benchmark; the median is tracked")
		gate  = flag.Bool("gate", false, "check the committed file against the regression thresholds and exit; run no benchmarks")
	)
	flag.Parse()
	if *count < 1 {
		*count = 1
	}
	if *gate {
		if err := checkGate(*out); err != nil {
			fatal(err)
		}
		fmt.Fprintf(os.Stderr, "tdbench: %s passes the regression gate\n", *out)
		return
	}

	prev := map[string]Record{}
	if raw, err := os.ReadFile(*out); err == nil {
		var old File
		if err := json.Unmarshal(raw, &old); err != nil {
			fatal(fmt.Errorf("parse %s: %w", *out, err))
		}
		prev = old.Benchmarks
	}

	cur := map[string]Record{}
	for _, b := range headline {
		fmt.Fprintf(os.Stderr, "tdbench: running %s (%d iterations)...\n", b.Name, *count)
		cur[b.Name] = measure(b.Body, *count)
	}

	fmt.Fprintln(os.Stderr, "tdbench: running tdlint...")
	nlint, err := lintFindings()
	if err != nil {
		fatal(err)
	}

	printDiff(prev, cur)
	fmt.Printf("%-19s %14d\n", "lint findings", nlint)

	if *dry {
		if nlint != 0 {
			fatal(fmt.Errorf("%d tdlint findings; the tree must be lint-clean", nlint))
		}
		return
	}
	f := File{Benchmarks: cur, LintFindings: nlint, CPUs: runtime.NumCPU()}
	if len(prev) > 0 {
		f.Previous = prev
	}
	raw, err := json.MarshalIndent(f, "", "  ")
	if err != nil {
		fatal(err)
	}
	if err := os.WriteFile(*out, append(raw, '\n'), 0o644); err != nil {
		fatal(err)
	}
	fmt.Fprintf(os.Stderr, "tdbench: wrote %s\n", *out)
	if nlint != 0 {
		fatal(fmt.Errorf("%d tdlint findings recorded; the tree must be lint-clean", nlint))
	}
}

// measure runs one benchmark body count times and aggregates: median ns/op
// (the tracked headline number), minimum ns/op, and the max-min spread as a
// percentage of the median. Allocation counters come from the median
// iteration — they are deterministic across runs, unlike wall time.
func measure(body func(*testing.B), count int) Record {
	type one struct {
		ns  float64
		res testing.BenchmarkResult
	}
	runs := make([]one, 0, count)
	for i := 0; i < count; i++ {
		r := testing.Benchmark(body)
		runs = append(runs, one{ns: float64(r.T.Nanoseconds()) / float64(r.N), res: r})
	}
	sort.Slice(runs, func(i, j int) bool { return runs[i].ns < runs[j].ns })
	med := runs[len(runs)/2]
	rec := Record{
		NsPerOp:     med.ns,
		BytesPerOp:  med.res.AllocedBytesPerOp(),
		AllocsPerOp: med.res.AllocsPerOp(),
	}
	if count > 1 {
		rec.MinNsPerOp = runs[0].ns
		if med.ns > 0 {
			rec.SpreadPct = (runs[len(runs)-1].ns - runs[0].ns) / med.ns * 100
		}
	}
	if ev, ok := med.res.Extra["events/op"]; ok && rec.NsPerOp > 0 {
		rec.EventsPerOp = ev
		rec.EventsPerSec = ev * 1e9 / rec.NsPerOp
	}
	return rec
}

// Regression thresholds enforced by `tdbench -gate` (run from ci.sh) against
// the *committed* BENCH_simcore.json — the gate never re-runs benchmarks,
// because a single CI run's wall time is exactly the ±20% noise the -count
// medians exist to filter out. The committed file is the reviewed artifact;
// the gate makes it impossible to commit one that records a regression.
const (
	// maxWeekAllocs bounds SimulatedWeek's allocs/op. The cold benchmark
	// rebuilds the network and flows every iteration, so it cannot be zero;
	// the bound holds the construction cost at its post-slab level (~1.1k)
	// with headroom for schedule-config drift, far below the ~2.4k it was
	// before the SoA slab landed.
	maxWeekAllocs = 1500
	// maxFlightAllocDelta bounds SimulatedWeekFlight's allocs/op above
	// SimulatedWeek's. Flight-ring writes must not allocate; the delta is
	// the per-network construction of each rack lane's tracer fork, its
	// flight recorder and ring, span-id source and spool mark — 5 per lane,
	// 10 on the 2-rack hybrid — plus 2 for runtime-internal rounding.
	maxFlightAllocDelta = 12
	// maxEvRegressPct fails the gate when the recorded SimulatedWeek
	// events/sec dropped more than this vs the file's "previous" entry.
	maxEvRegressPct = 20.0
	// minShardSpeedup is the floor on SimulatedWeekSharded events/sec over
	// SimulatedWeekSequential: four workers must buy at least 1.5x. Enforced
	// only when the recording machine had >= minShardGateCPUs cores — below
	// that the four workers time-share and the ratio measures contention, not
	// the engine.
	minShardSpeedup  = 1.5
	minShardGateCPUs = 4
)

// checkGate applies the committed-file regression thresholds: SimulatedWeek
// allocation ceiling, the SimulatedWeekFlight allocation delta over it,
// SimulatedWeek events/sec vs the previous record, the SimulatedWeekSteady
// zero-allocation claim (the hot path's contract), and —
// when the recording machine had enough cores to mean anything — the
// sharded-engine speedup floor over the sequential twin.
func checkGate(path string) error {
	raw, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	var f File
	if err := json.Unmarshal(raw, &f); err != nil {
		return fmt.Errorf("parse %s: %w", path, err)
	}
	week, ok := f.Benchmarks["SimulatedWeek"]
	if !ok {
		return fmt.Errorf("%s records no SimulatedWeek benchmark", path)
	}
	if week.AllocsPerOp > maxWeekAllocs {
		return fmt.Errorf("SimulatedWeek allocs/op %d exceeds the committed ceiling %d",
			week.AllocsPerOp, maxWeekAllocs)
	}
	if fl, ok := f.Benchmarks["SimulatedWeekFlight"]; ok && fl.AllocsPerOp-week.AllocsPerOp > maxFlightAllocDelta {
		return fmt.Errorf("SimulatedWeekFlight allocs/op %d is %d above SimulatedWeek's %d; the budget is %d",
			fl.AllocsPerOp, fl.AllocsPerOp-week.AllocsPerOp, week.AllocsPerOp, maxFlightAllocDelta)
	}
	if steady, ok := f.Benchmarks["SimulatedWeekSteady"]; ok && steady.AllocsPerOp != 0 {
		return fmt.Errorf("SimulatedWeekSteady allocs/op %d; the steady state must not allocate",
			steady.AllocsPerOp)
	}
	if prev, ok := f.Previous["SimulatedWeek"]; ok && prev.EventsPerSec > 0 && week.EventsPerSec > 0 {
		drop := (prev.EventsPerSec - week.EventsPerSec) / prev.EventsPerSec * 100
		if drop > maxEvRegressPct {
			return fmt.Errorf("SimulatedWeek events/sec dropped %.1f%% (%.0f -> %.0f), over the %.0f%% budget",
				drop, prev.EventsPerSec, week.EventsPerSec, maxEvRegressPct)
		}
	}
	seq, seqOK := f.Benchmarks["SimulatedWeekSequential"]
	sharded, shOK := f.Benchmarks["SimulatedWeekSharded"]
	if seqOK && shOK && seq.EventsPerSec > 0 {
		ratio := sharded.EventsPerSec / seq.EventsPerSec
		if f.CPUs >= minShardGateCPUs && ratio < minShardSpeedup {
			return fmt.Errorf("SimulatedWeekSharded is only %.2fx SimulatedWeekSequential (%.0f vs %.0f events/sec) on a %d-core recording; the floor is %.1fx",
				ratio, sharded.EventsPerSec, seq.EventsPerSec, f.CPUs, minShardSpeedup)
		}
		if sharded.AllocsPerOp > 4*seq.AllocsPerOp+1024 {
			return fmt.Errorf("SimulatedWeekSharded allocs/op %d far exceeds sequential %d; the shard runtime is allocating per event",
				sharded.AllocsPerOp, seq.AllocsPerOp)
		}
	}
	if f.LintFindings != 0 {
		return fmt.Errorf("%d tdlint findings recorded; the tracked numbers are not trustworthy", f.LintFindings)
	}
	return nil
}

// lintFindings runs the full tdlint suite in-process over the module rooted
// in the working directory.
func lintFindings() (int, error) {
	prog, err := lint.Load(".", "./...")
	if err != nil {
		return 0, err
	}
	return len(lint.Run(prog, lint.All())), nil
}

// printDiff renders old -> new per benchmark in the headline order.
func printDiff(prev, cur map[string]Record) {
	fmt.Printf("%-19s %14s %9s %14s %12s %16s\n", "benchmark", "ns/op", "spread", "B/op", "allocs/op", "events/sec")
	for _, b := range headline {
		c := cur[b.Name]
		fmt.Printf("%-19s %14.1f %8.1f%% %14d %12d %16.0f\n",
			b.Name, c.NsPerOp, c.SpreadPct, c.BytesPerOp, c.AllocsPerOp, c.EventsPerSec)
		p, ok := prev[b.Name]
		if !ok {
			continue
		}
		fmt.Printf("%-19s %14.1f %8.1f%% %14d %12d %16.0f\n", "  previous", p.NsPerOp, p.SpreadPct, p.BytesPerOp, p.AllocsPerOp, p.EventsPerSec)
		fmt.Printf("%-19s %13s%% %9s %13s%% %11s%%\n", "  delta",
			pct(c.NsPerOp, p.NsPerOp), "", pct(float64(c.BytesPerOp), float64(p.BytesPerOp)),
			pct(float64(c.AllocsPerOp), float64(p.AllocsPerOp)))
	}
	lo, hi := cur["RotorScaling/8"], cur["RotorScaling/64"]
	if lo.EventsPerSec > 0 && hi.EventsPerSec > 0 {
		fmt.Printf("%-19s %13.2fx\n", "RotorScaling ev/s 8÷64", lo.EventsPerSec/hi.EventsPerSec)
	}
}

// pct formats the relative change from old to new ("-74.4", "+3.0").
func pct(new, old float64) string {
	if old == 0 {
		return "n/a"
	}
	return fmt.Sprintf("%+.1f", (new-old)/old*100)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "tdbench:", err)
	os.Exit(1)
}
