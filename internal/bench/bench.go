// Package bench holds the headline simulator benchmark bodies, shared
// between the `go test -bench` harness (the repo root's bench_test.go) and
// the tracked runner (cmd/tdbench), which invokes them through
// testing.Benchmark and records the results in BENCH_simcore.json.
//
// Both bodies report an "events/op" metric (simulation events fired per
// iteration) so the runner can derive events/sec, the simulator's headline
// throughput number.
package bench

import (
	"testing"

	"github.com/rdcn-net/tdtcp/internal/experiments"
	"github.com/rdcn-net/tdtcp/internal/rdcn"
	"github.com/rdcn-net/tdtcp/internal/sim"
	"github.com/rdcn-net/tdtcp/internal/tcp"
	"github.com/rdcn-net/tdtcp/internal/trace"
)

// EventLoop measures raw event-loop throughput: a single self-rescheduling
// timer firing b.N times. This is the floor cost of one simulation event —
// heap push, pop, dispatch — and must stay allocation-free.
func EventLoop(b *testing.B) {
	loop := sim.NewLoop(1)
	b.ReportAllocs()
	var fn func()
	n := 0
	fn = func() {
		n++
		if n < b.N {
			loop.After(1, fn)
		}
	}
	loop.After(1, fn)
	loop.Run()
	b.ReportMetric(1, "events/op")
}

// Seed is the one simulation seed every end-to-end body runs, so events/op
// is a property of the code, not of b.N.
const Seed = 1

// hybridWeek builds the full 16-flow TDTCP experiment on the default hybrid
// RDCN exactly as experiments.Run wires it — the network's sharded engine at
// one worker, one connection slab per rack, flows traced through their
// rack's lane fork of tr (nil = untraced) — and starts the control plane
// for the given number of optical weeks.
func hybridWeek(b *testing.B, tr *trace.Tracer, weeks int) *rdcn.Network {
	cfg := rdcn.DefaultConfig()
	net, err := rdcn.New(cfg, Seed, 1)
	if err != nil {
		b.Fatal(err)
	}
	net.SetTracer(tr)
	slabs := make([]*tcp.Slab, len(net.Racks))
	for r := range slabs {
		slabs[r] = tcp.NewSlab(2*cfg.HostsPerRack, 4*cfg.HostsPerRack)
	}
	fopt := experiments.FlowOptions{Slabs: slabs}
	for f := 0; f < cfg.HostsPerRack; f++ {
		fl, err := experiments.BuildFlow(net, f, experiments.TDTCP, fopt)
		if err != nil {
			b.Fatal(err)
		}
		fl.SetTracer(net.Racks[0].Tracer(), f)
		fl.Start(-1)
	}
	net.Start(sim.Time(sim.Dur(weeks) * cfg.Schedule.Week()))
	return net
}

// SimulatedWeek measures wall time per simulated optical week of the full
// 16-flow TDTCP experiment on the default hybrid RDCN: event loop, transport,
// wire codec, VOQs and control plane together, built from scratch each
// iteration.
func SimulatedWeek(b *testing.B) {
	b.ReportAllocs()
	var fired uint64
	for i := 0; i < b.N; i++ {
		net := hybridWeek(b, nil, 1)
		net.Engine.RunUntil(sim.Time(net.Cfg.Schedule.Week()))
		fired += net.Engine.Fired()
	}
	b.ReportMetric(float64(fired)/float64(b.N), "events/op")
}

// SimulatedWeekSteady measures the steady-state cost of the running
// experiment with construction and ramp-up excluded: one network and 16-flow
// TDTCP fleet are built once and warmed for a full optical week, then each
// iteration advances the same simulation by exactly one more week.
// Steady-state operation must not allocate: every per-frame and per-ACK
// object comes from a pool, slab, chunk, or scratch buffer, so the benchmark
// is the 0 allocs/op gate for the hot path (enforced by ci.sh).
func SimulatedWeekSteady(b *testing.B) {
	net := hybridWeek(b, nil, b.N+1)
	week := int64(net.Cfg.Schedule.Week())
	net.Engine.RunUntil(sim.Time(week)) // warm-up: handshakes, ramp, pool fill
	fired := net.Engine.Fired()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		net.Engine.RunUntil(sim.Time(week * int64(i+2)))
	}
	b.StopTimer()
	b.ReportMetric(float64(net.Engine.Fired()-fired)/float64(b.N), "events/op")
}

// simulatedWeekEngine runs one warmup+measurement TDTCP experiment on the
// 8-rack rotor fabric through experiments.Run at the given worker count.
// The sharded and sequential variants below share this body, so their
// events/sec ratio isolates exactly one variable: how many workers the
// engine spreads the per-rack lanes across.
func simulatedWeekEngine(b *testing.B, shards int) {
	b.ReportAllocs()
	var fired uint64
	for i := 0; i < b.N; i++ {
		m := trace.NewRegistry()
		_, err := experiments.Run(experiments.RunConfig{
			Variant: experiments.TDTCP, Scenario: experiments.MultiRack(8),
			Flows: 16, WarmupWeeks: 1, MeasureWeeks: 1, Seed: Seed,
			Shards: shards, Metrics: m,
		})
		if err != nil {
			b.Fatal(err)
		}
		fired += uint64(m.Counter("sim.events_fired"))
	}
	b.ReportMetric(float64(fired)/float64(b.N), "events/op")
}

// SimulatedWeekSequential is the single-worker twin of SimulatedWeekSharded:
// the same 8-rack rotor experiment with every lane run inline on one
// goroutine. Tracked so the sharded speedup is a ratio between two numbers
// measured the same way on the same machine.
func SimulatedWeekSequential(b *testing.B) { simulatedWeekEngine(b, 1) }

// SimulatedWeekSharded runs the 8-rack rotor experiment on four event-loop
// workers. Its output is byte-identical to SimulatedWeekSequential's (the
// parity suite proves that); only the wall clock may differ, and on a
// multi-core machine tdbench's gate holds the events/sec ratio above its
// floor.
func SimulatedWeekSharded(b *testing.B) { simulatedWeekEngine(b, 4) }

// RotorScalingRacks are the rungs of the rack-scaling ladder.
var RotorScalingRacks = []int{8, 32, 64}

// RotorScaling runs one rung of the rack-scaling ladder: a TDTCP experiment
// on a racks-rack rotor fabric through experiments.Run at one engine worker,
// 4 flows per rack, one warmup and one measurement week. Comparing
// events/sec across rungs shows how per-event cost grows with the number of
// racks.
func RotorScaling(b *testing.B, racks int) {
	b.ReportAllocs()
	var fired uint64
	for i := 0; i < b.N; i++ {
		m := trace.NewRegistry()
		_, err := experiments.Run(experiments.RunConfig{
			Variant: experiments.TDTCP, Scenario: experiments.MultiRack(racks),
			Flows: 4 * racks, WarmupWeeks: 1, MeasureWeeks: 1, Seed: Seed,
			Shards: 1, Metrics: m,
		})
		if err != nil {
			b.Fatal(err)
		}
		fired += uint64(m.Counter("sim.events_fired"))
	}
	b.ReportMetric(float64(fired)/float64(b.N), "events/op")
}

// SimulatedWeekFlight is SimulatedWeek with the always-on flight recorder
// attached, the default experiments.Run configuration: every instrumented
// site records into the fixed rings (the shared one and each rack lane's
// fork) through a flight-only tracer (no JSONL encoding). The shared ring
// and tracer are allocated once outside the timed loop and the ring is Reset
// per iteration; the per-lane forks are rebuilt with each network, so the
// measured cost is the ring writes plus a constant per-run allocation delta
// against SimulatedWeek. The budget is <5% events/sec (tracked in
// BENCH_simcore.json) and at most 12 allocs/op over SimulatedWeek (gated by
// tdbench -gate).
func SimulatedWeekFlight(b *testing.B) {
	flight := trace.NewFlight(trace.DefaultFlightLen, trace.DefaultFlightCats)
	tr := (*trace.Tracer)(nil).WithFlight(flight)
	b.ReportAllocs()
	b.ResetTimer()
	var fired uint64
	for i := 0; i < b.N; i++ {
		flight.Reset()
		net := hybridWeek(b, tr, 1)
		net.Engine.RunUntil(sim.Time(net.Cfg.Schedule.Week()))
		fired += net.Engine.Fired()
	}
	b.ReportMetric(float64(fired)/float64(b.N), "events/op")
}
