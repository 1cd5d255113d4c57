package experiments

import (
	"bytes"
	"fmt"
	"testing"

	"github.com/rdcn-net/tdtcp/internal/fault"
	"github.com/rdcn-net/tdtcp/internal/invariant"
	"github.com/rdcn-net/tdtcp/internal/obs"
	"github.com/rdcn-net/tdtcp/internal/rdcn"
	"github.com/rdcn-net/tdtcp/internal/sim"
	"github.com/rdcn-net/tdtcp/internal/trace"
)

// shortRun executes a 2-flow, 1+2-week run of the given variant under plan
// (nil = clean) with the invariant checker attached. Any failure in the
// calling test logs the run's flight recorder.
func shortRun(t *testing.T, v Variant, plan *fault.Plan) *Result {
	t.Helper()
	res, err := Run(RunConfig{
		Variant:      v,
		Flows:        2,
		WarmupWeeks:  1,
		MeasureWeeks: 2,
		Seed:         1,
		Fault:        plan,
		Invariants:   true,
	})
	if err != nil {
		t.Fatalf("Run(%s): %v", v, err)
	}
	obs.DumpOnFailure(t, res.Flight)
	return res
}

// TestFaultMatrix sweeps fault plans across transports and asserts the two
// robustness properties the subsystem promises: no invariant ever breaks, and
// throughput degrades boundedly instead of collapsing to a stall.
func TestFaultMatrix(t *testing.T) {
	plans := []string{
		"nloss=0.1",
		"flaps=1,flapfrac=0.5",
		"drop=0.02",
		"nloss=0.05,drop=0.01,flaps=1",
	}
	variants := []Variant{TDTCP, Cubic, DCTCP}

	for _, v := range variants {
		clean := shortRun(t, v, nil)
		if len(clean.Violations) != 0 {
			t.Fatalf("%s clean run: %d invariant violations: %v", v, len(clean.Violations), clean.Violations[0])
		}
		for _, spec := range plans {
			t.Run(fmt.Sprintf("%s/%s", v, spec), func(t *testing.T) {
				plan, err := fault.Parse(spec)
				if err != nil {
					t.Fatalf("Parse(%q): %v", spec, err)
				}
				res := shortRun(t, v, &plan)
				if n := len(res.Violations); n != 0 {
					t.Fatalf("%d invariant violations, first: %v", n, res.Violations[0])
				}
				if res.InvariantChecks == 0 {
					t.Fatal("invariant checker never ran")
				}
				if res.GoodputGbps <= 0 {
					t.Fatalf("faulted run stalled: goodput %v Gbps", res.GoodputGbps)
				}
				// Bounded collapse: a lossy control channel or 2% data-path
				// drop must not cost more than 90% of clean throughput.
				if res.GoodputGbps < 0.1*clean.GoodputGbps {
					t.Fatalf("throughput collapsed: %0.2f Gbps faulted vs %0.2f clean",
						res.GoodputGbps, clean.GoodputGbps)
				}
			})
		}
	}
}

// faultedTracedRun is tracedRun's faulted twin: full-category trace + metrics
// of a TDTCP run under notification loss, circuit flaps and frame drops.
func faultedTracedRun(t *testing.T) ([]byte, []byte) {
	t.Helper()
	plan, err := fault.Parse("nloss=0.1,ndup=0.05,drop=0.01,flaps=1,drift=2us")
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	var buf bytes.Buffer
	tr := trace.New(&buf, trace.CatAll)
	reg := trace.NewRegistry()
	_, err = Run(RunConfig{
		Variant:      TDTCP,
		Flows:        2,
		WarmupWeeks:  1,
		MeasureWeeks: 2,
		Seed:         42,
		Fault:        &plan,
		FaultSeed:    7,
		Invariants:   true,
		Tracer:       tr,
		Metrics:      reg,
	})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if err := tr.Flush(); err != nil {
		t.Fatalf("Flush: %v", err)
	}
	var mj bytes.Buffer
	if err := reg.WriteJSON(&mj); err != nil {
		t.Fatalf("WriteJSON: %v", err)
	}
	return buf.Bytes(), mj.Bytes()
}

// TestFaultedRunDeterministic is the reproducibility acceptance criterion:
// same (seed, faultseed) must give byte-identical traces and metrics.
func TestFaultedRunDeterministic(t *testing.T) {
	trA, mA := faultedTracedRun(t)
	trB, mB := faultedTracedRun(t)
	if !bytes.Equal(trA, trB) {
		t.Fatalf("same (seed, faultseed) produced different traces (%d vs %d bytes)", len(trA), len(trB))
	}
	if !bytes.Equal(mA, mB) {
		t.Fatalf("same (seed, faultseed) produced different metrics:\n%s\nvs\n%s", mA, mB)
	}
	// Faults must actually have been injected and traced.
	for _, want := range []string{`"cat":"fault"`, `"name":"notify_drop"`} {
		if !bytes.Contains(trA, []byte(want)) {
			t.Errorf("faulted trace missing %s", want)
		}
	}
}

// TestDeadmanEngagesUnderNotificationLoss is the degradation acceptance
// criterion: a TDTCP run losing 10% of its notifications completes (goodput
// comparable to clean) with the schedule-inference deadman visibly engaging.
func TestDeadmanEngagesUnderNotificationLoss(t *testing.T) {
	clean := shortRun(t, TDTCP, nil)
	if clean.DeadmanEngaged != 0 {
		t.Fatalf("clean run engaged the deadman %d times", clean.DeadmanEngaged)
	}

	plan, err := fault.Parse("nloss=0.1")
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	reg := trace.NewRegistry()
	res, err := Run(RunConfig{
		Variant:      TDTCP,
		Flows:        2,
		WarmupWeeks:  1,
		MeasureWeeks: 2,
		Seed:         1,
		Fault:        &plan,
		Invariants:   true,
		Metrics:      reg,
	})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	obs.DumpOnFailure(t, res.Flight)
	if res.FaultStats.NotifyDropped == 0 {
		t.Fatal("plan dropped no notifications")
	}
	if res.DeadmanEngaged == 0 {
		t.Fatal("deadman never engaged despite dropped notifications")
	}
	if got := reg.Counter("tdtcp.deadman_engaged"); got != int64(res.DeadmanEngaged) {
		t.Errorf("metrics tdtcp.deadman_engaged = %d, want %d", got, res.DeadmanEngaged)
	}
	if reg.Counter("fault.notify_dropped") != int64(res.FaultStats.NotifyDropped) {
		t.Errorf("metrics fault.notify_dropped = %d, want %d",
			reg.Counter("fault.notify_dropped"), res.FaultStats.NotifyDropped)
	}
	if len(res.Violations) != 0 {
		t.Fatalf("invariant violations under notification loss: %v", res.Violations[0])
	}
	if res.GoodputGbps < 0.5*clean.GoodputGbps {
		t.Fatalf("notification loss halved throughput despite deadman: %0.2f vs %0.2f Gbps",
			res.GoodputGbps, clean.GoodputGbps)
	}
}

// TestInvariantsCheckEveryEvent pins the checker's coverage: on a checked
// run it sweeps after every event on every engine lane, so its check count
// equals the engine's fired-event count, and the recorded violations do not
// depend on the worker count.
func TestInvariantsCheckEveryEvent(t *testing.T) {
	plan, err := fault.Parse("drop=0.02,corrupt=0.01,nloss=0.1")
	if err != nil {
		t.Fatal(err)
	}
	var base []string
	for _, shards := range []int{1, 4} {
		m := trace.NewRegistry()
		res, err := Run(RunConfig{Variant: TDTCP, Scenario: MultiRack(4), Flows: 8,
			WarmupWeeks: 1, MeasureWeeks: 1, Seed: 3, Shards: shards,
			Fault: &plan, Invariants: true, Metrics: m})
		if err != nil {
			t.Fatalf("%d shards: %v", shards, err)
		}
		if fired := uint64(m.Counter("sim.events_fired")); res.InvariantChecks != fired {
			t.Fatalf("%d shards: %d invariant checks for %d events fired", shards, res.InvariantChecks, fired)
		}
		var vs []string
		for _, v := range res.Violations {
			vs = append(vs, v.String())
		}
		if shards == 1 {
			base = vs
			continue
		}
		if fmt.Sprint(vs) != fmt.Sprint(base) {
			t.Fatalf("%d shards: violations %v != sequential %v", shards, vs, base)
		}
	}
}

// TestInvariantViolationsMergeAcrossLanes corrupts three senders' pipe
// counters from events on their own rack lanes: each rack lane must catch
// its corruption at the corrupting instant (not at the next control-lane
// event), and the merged violations must come out in (time, lane) order,
// identically at every worker count.
func TestInvariantViolationsMergeAcrossLanes(t *testing.T) {
	t0, t1 := sim.Time(300*sim.Microsecond+7), sim.Time(500*sim.Microsecond+3)
	run := func(shards int) []invariant.Violation {
		sc := MultiRack(4)
		ncfg := rdcn.DefaultConfig()
		ncfg.Racks, ncfg.HostsPerRack = 4, 1
		ncfg.TDNs, ncfg.Schedule, ncfg.VOQCap = sc.TDNs, sc.Schedule, sc.VOQCap
		net, err := rdcn.New(ncfg, 5, shards)
		if err != nil {
			t.Fatal(err)
		}
		chk := invariant.New(net.Engine)
		chk.WatchNetwork(net)
		mn := newMuxNet(net)
		var flows []*Flow
		for r := 0; r < 4; r++ {
			f, err := mn.BuildFlow(r, 0, (r+1)%4, 0, uint16(40000+r), TDTCP, FlowOptions{})
			if err != nil {
				t.Fatal(err)
			}
			chk.WatchConn(f.Snd, r)
			chk.WatchConn(f.Rcv, r)
			f.Start(-1)
			flows = append(flows, f)
		}
		corrupt := func(f *Flow, at sim.Time) {
			f.Snd.Loop.At(at, func() { f.Snd.States()[0].AddPacketsOut(1000) })
		}
		corrupt(flows[2], t1)
		corrupt(flows[1], t1)
		corrupt(flows[3], t0)
		end := sim.Time(sc.Schedule.Week())
		net.Start(end)
		net.Engine.RunUntil(end)
		return chk.Violations()
	}
	want := []struct {
		at   sim.Time
		site string
	}{{t0, "conn[3]"}, {t1, "conn[1]"}, {t1, "conn[2]"}}
	base := run(1)
	if len(base) != len(want) {
		t.Fatalf("violations %v, want %d", base, len(want))
	}
	for i, w := range want {
		if base[i].At != w.at || base[i].Site != w.site {
			t.Fatalf("violation %d = %v, want %s at %v", i, base[i], w.site, w.at)
		}
	}
	if got := run(4); fmt.Sprint(got) != fmt.Sprint(base) {
		t.Fatalf("4 shards: violations %v != sequential %v", got, base)
	}
}
