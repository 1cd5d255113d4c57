package main

import (
	"encoding/json"
	"os"
	"sort"
	"strings"
	"testing"
	"time"
)

// tinySizes shrink every workload to milliseconds of work.
var tinySizes = sizes{
	SweepSeeds: 1, SweepWarmup: 1, SweepMeasure: 1,
	RotorRacks: 4, RotorFlowsPerRack: 1, RotorWarmup: 1, RotorMeasure: 1,
	WebRacks: 4, WebWarmup: 1, WebMeasure: 2, WebLoad: 0.3,
	ServeJobs: 6, ServeRate: 200, ServeStarts: 1,
}

func tinyBench(t *testing.T, name string) *bench {
	t.Helper()
	w, ok := workloadByName(name)
	if !ok {
		t.Fatalf("no workload %q", name)
	}
	return &bench{w: w, sz: tinySizes, seed: 3, budget: time.Millisecond, outDir: t.TempDir()}
}

// declared reads the metric names and units BENCHMARK.json declares.
func declared(t *testing.T) (workloads []string, endToEnd, perLayer map[string]string) {
	t.Helper()
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &b); err != nil {
		t.Fatal(err)
	}
	endToEnd, perLayer = map[string]string{}, map[string]string{}
	for _, w := range b.Workloads {
		workloads = append(workloads, w.Name)
	}
	for _, m := range b.EndToEnd {
		endToEnd[m.Name] = m.Unit
	}
	for _, m := range b.PerLayer {
		perLayer[m.Name] = m.Unit
	}
	return workloads, endToEnd, perLayer
}

// checkResult asserts the result line is correct and prints exactly the
// declared metrics, each with its declared unit.
func checkResult(t *testing.T, res *result, want map[string]string) {
	t.Helper()
	if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
		t.Errorf("correct=%v attempted=%d failed=%d", res.Correct, res.Attempted, res.Failed)
	}
	line, err := json.Marshal(res)
	if err != nil {
		t.Fatal(err)
	}
	var back struct {
		Correct           *bool
		Attempted, Failed *int
		Metrics           map[string]metric
	}
	if err := json.Unmarshal(line, &back); err != nil || back.Correct == nil || back.Attempted == nil || back.Failed == nil {
		t.Fatalf("result line %s: %v", line, err)
	}
	var got []string
	for name, m := range back.Metrics {
		got = append(got, name)
		if u, ok := want[name]; !ok || m.Unit != u {
			t.Errorf("metric %s unit %q, declared %q (declared: %v)", name, m.Unit, u, ok)
		}
	}
	if len(got) != len(want) {
		sort.Strings(got)
		t.Errorf("printed %d metrics %v, declared %d", len(got), got, len(want))
	}
}

func TestWorkloadsMatchBenchmarkJSON(t *testing.T) {
	names, _, _ := declared(t)
	if got := strings.Join(names, ", "); got != workloadNames() {
		t.Errorf("BENCHMARK.json workloads %q, benchmark %q", got, workloadNames())
	}
}

func TestEndToEndMetricsPrintWithUnits(t *testing.T) {
	names, e2e, _ := declared(t)
	for _, name := range names {
		t.Run(name, func(t *testing.T) {
			res, err := tinyBench(t, name).run(false)
			if err != nil {
				t.Fatal(err)
			}
			checkResult(t, res, e2e)
			for k, m := range res.Metrics {
				if m.Value <= 0 {
					t.Errorf("%s = %v, want > 0", k, m.Value)
				}
			}
		})
	}
}

func TestPerLayerMetricsPrintWithUnits(t *testing.T) {
	names, _, layers := declared(t)
	for _, name := range names {
		t.Run(name, func(t *testing.T) {
			b := tinyBench(t, name)
			res, err := b.run(true)
			if err != nil {
				t.Fatal(err)
			}
			checkResult(t, res, layers)
			var sum float64
			for _, m := range modules {
				sum += res.Metrics[m+".self_frac"].Value
			}
			if cpu := res.Metrics["bench.profile_cpu_s"].Value; cpu > 0 && (sum < 0.999 || sum > 1.001) {
				t.Errorf("self shares sum to %v, want 1", sum)
			}
		})
	}
}

func TestForcedDigestMismatchCountsAsFailed(t *testing.T) {
	b := tinyBench(t, "hybrid-sweep")
	b.want = "0000000000000000"
	res, err := b.run(false)
	if err != nil {
		t.Fatal(err)
	}
	if res.Correct || res.Failed != res.Attempted || res.Attempted == 0 {
		t.Errorf("correct=%v attempted=%d failed=%d, want every operation failed", res.Correct, res.Attempted, res.Failed)
	}
}

func TestForcedArrivalCapCountsAsFailed(t *testing.T) {
	b := tinyBench(t, "websearch-open")
	b.sz.WebMaxFlows = 3
	res, err := b.run(false)
	if err != nil {
		t.Fatal(err)
	}
	if res.Correct || res.Failed == 0 || res.Failed != res.Attempted {
		t.Errorf("correct=%v attempted=%d failed=%d, want the capped runs failed", res.Correct, res.Attempted, res.Failed)
	}
}

func TestParseTraces(t *testing.T) {
	const out = `File: perfbench
Type: cpu
-----------+-------------------------------------------------------
      30ms   github.com/rdcn-net/tdtcp/internal/rdcn.(*Schedule).At
             github.com/rdcn-net/tdtcp/internal/workload.OptimalBytes
             github.com/rdcn-net/tdtcp/internal/workload.OptimalSeries
             github.com/rdcn-net/tdtcp/internal/experiments.Run
             main.rotorUnit
-----------+-------------------------------------------------------
      10ms   github.com/rdcn-net/tdtcp/internal/tcp.(*Conn).Notify
             github.com/rdcn-net/tdtcp/internal/rdcn.(*Network).transition
             github.com/rdcn-net/tdtcp/internal/sim.(*Loop).runInstant
             github.com/rdcn-net/tdtcp/internal/sim.(*ShardedLoop).RunUntil
             github.com/rdcn-net/tdtcp/internal/experiments.Run
-----------+-------------------------------------------------------
      10ms   runtime.scanobject
             runtime.gcBgMarkWorker
-----------+-------------------------------------------------------
      10ms   github.com/rdcn-net/tdtcp/internal/rdcn.New
             github.com/rdcn-net/tdtcp/internal/experiments.Run
-----------+-------------------------------------------------------
`
	a, err := parseTraces([]byte(out))
	if err != nil {
		t.Fatal(err)
	}
	if a.total != 60*time.Millisecond {
		t.Fatalf("total %v", a.total)
	}
	want := map[string]time.Duration{"rdcn": 40 * time.Millisecond, "tcp": 10 * time.Millisecond, "runtime": 10 * time.Millisecond}
	for m, d := range want {
		if a.self[m] != d {
			t.Errorf("self %s = %v, want %v", m, a.self[m], d)
		}
	}
	if a.phase[phasePost] != 30*time.Millisecond || a.phase[phaseSimulate] != 10*time.Millisecond || a.phase[phaseSetup] != 10*time.Millisecond {
		t.Errorf("phases %v", a.phase)
	}
	if a.transition != 10*time.Millisecond || a.notify != 10*time.Millisecond || a.gc != 10*time.Millisecond || a.inSim != 50*time.Millisecond {
		t.Errorf("transition %v notify %v gc %v inSim %v", a.transition, a.notify, a.gc, a.inSim)
	}
}
