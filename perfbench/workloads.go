package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"strings"
	"time"

	"github.com/rdcn-net/tdtcp/internal/experiments"
	"github.com/rdcn-net/tdtcp/internal/rdcn"
	"github.com/rdcn-net/tdtcp/internal/sim"
	"github.com/rdcn-net/tdtcp/internal/trace"
	"github.com/rdcn-net/tdtcp/internal/workload"
)

// benchWorkload is one named input set. A unit is the piece of work the
// benchmark repeats for its time budget: one sweep, one run, one workload
// run, or one batch of tdserve jobs.
type benchWorkload struct {
	name string
	unit func(b *bench, shards int) *unitStats
	// args are the public layer-function arguments the workload really
	// uses, for the traced run's ladder.
	args func(sz sizes) layerArgs
	// shardParity adds one unit at nproc engine workers whose digest must
	// equal the 1-worker units'.
	shardParity bool
	// countUnit, when set, runs one extra traced-mode unit that counts the
	// TDN switches and VOQ drops the workload's registry does not count.
	countUnit func(b *bench) (switches, drops float64, err error)
	// probes, for the simulation workloads, lists the unit's simulations as
	// calls taking a stop seam; probeSetup cancels each at its first event
	// to sample set-up time.
	probes func(b *bench) []func(stop func() bool)
}

// layerArgs are the arguments of the ladder's public functions.
type layerArgs struct {
	sched *rdcn.Schedule
	tdns  []rdcn.TDNParams
	// from, to, step are the OptimalSeries/PacketOnlySeries window; to == 0
	// means the workload never calls them.
	from, to sim.Time
	step     sim.Dur
}

var workloads = []benchWorkload{
	{
		name: "hybrid-sweep",
		unit: sweepUnit,
		probes: func(b *bench) []func(func() bool) {
			var ps []func(func() bool)
			for _, c := range sweepConfigs(b) {
				ps = append(ps, runProbe(c))
			}
			return ps
		},
		args: func(sz sizes) layerArgs {
			return windowArgs(experiments.Hybrid(), sz.SweepWarmup, sz.SweepMeasure)
		},
	},
	{
		name:   "rotor-32",
		unit:   rotorUnit,
		probes: func(b *bench) []func(func() bool) { return []func(func() bool){runProbe(rotorConfig(b, 1))} },
		args: func(sz sizes) layerArgs {
			return windowArgs(experiments.MultiRack(sz.RotorRacks), sz.RotorWarmup, sz.RotorMeasure)
		},
		shardParity: true,
	},
	{
		name: "websearch-open",
		unit: websearchUnit,
		probes: func(b *bench) []func(func() bool) {
			return []func(func() bool){workloadProbe(websearchConfig(b))}
		},
		args: func(sz sizes) layerArgs {
			s := experiments.MultiRack(sz.WebRacks)
			return layerArgs{sched: s.Schedule, tdns: s.TDNs}
		},
		countUnit: websearchCounts,
	},
	{
		name: "tdserve-jobs",
		unit: serveUnit,
		// The small runs' window: most fresh jobs use it.
		args: func(sz sizes) layerArgs { return windowArgs(experiments.Hybrid(), 1, 4) },
	},
}

func windowArgs(s experiments.Scenario, warm, measure int) layerArgs {
	week := s.Schedule.Week()
	from := sim.Time(sim.Dur(warm) * week)
	return layerArgs{sched: s.Schedule, tdns: s.TDNs, from: from,
		to: from.Add(sim.Dur(measure) * week), step: 5 * sim.Microsecond}
}

func workloadByName(name string) (benchWorkload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return benchWorkload{}, false
}

func workloadNames() string {
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return strings.Join(names, ", ")
}

// simClock times one simulation's phases through the public stop seam
// (RunConfig.Stop with StopEvery 1): the seam is first polled after the
// first simulated events and last polled at the final barrier, so
// [start, first) is set-up, [first, last] the event loop, and the rest
// post-processing. The seam never stops the run.
type simClock struct {
	start, first, last, end time.Time
	// cancel makes the first poll stop the run (set-up probes).
	cancel bool
}

func (c *simClock) poll() bool {
	now := time.Now()
	if c.first.IsZero() {
		c.first = now
	}
	c.last = now
	return c.cancel
}

// probeSetup runs the unit's simulations, each cancelled through the stop
// seam at its first poll, and returns their summed set-up time.
func probeSetup(b *bench) time.Duration {
	var sum time.Duration
	for _, run := range b.w.probes(b) {
		c := &simClock{cancel: true, start: time.Now()}
		run(c.poll) // returns ErrCancelled by design
		if c.first.IsZero() {
			c.first = time.Now()
		}
		sum += c.first.Sub(c.start)
	}
	return sum
}

// runProbe and workloadProbe wrap one configuration as a probe call.
func runProbe(cfg experiments.RunConfig) func(stop func() bool) {
	return func(stop func() bool) {
		cfg.Metrics, cfg.Stop, cfg.StopEvery = trace.NewRegistry(), stop, 1
		_, _ = experiments.Run(cfg)
	}
}

func workloadProbe(cfg experiments.WorkloadConfig) func(stop func() bool) {
	return func(stop func() bool) {
		cfg.Metrics, cfg.Stop, cfg.StopEvery = trace.NewRegistry(), stop, 1
		_, _ = experiments.RunWorkload(cfg)
	}
}

// record adds the simulation's phases to u and its spans to the log.
func (c *simClock) record(b *bench, u *unitStats, parent int) {
	first, last := c.first, c.last
	if first.IsZero() {
		first, last = c.end, c.end
	}
	id := b.spans.add("sim", parent, c.start, c.end)
	b.spans.add("setup", id, c.start, first)
	b.spans.add("simulate", id, first, last)
	b.spans.add("post", id, last, c.end)
	u.simulate += last.Sub(first)
	u.jobs = append(u.jobs, c.end.Sub(c.start))
}

// cellClocks adapts per-cell clocks to experiments.SweepObserver.
type cellClocks []*simClock

func (cc cellClocks) CellStart(_, cell int)         { cc[cell].start = time.Now() }
func (cc cellClocks) CellDone(_, cell int, _ error) { cc[cell].end = time.Now() }

// sweepConfigs is the hybrid-sweep matrix: all six variants x SweepSeeds
// seeds of the paper's hybrid testbed with 16 long-lived flows.
func sweepConfigs(b *bench) []experiments.RunConfig {
	seeds := make([]int64, b.sz.SweepSeeds)
	for i := range seeds {
		seeds[i] = b.seed*100 + int64(i) + 1
	}
	base := experiments.RunConfig{Scenario: experiments.Hybrid(), Flows: 16,
		WarmupWeeks: b.sz.SweepWarmup, MeasureWeeks: b.sz.SweepMeasure}
	return experiments.Matrix(base, experiments.AllVariants, seeds)
}

// sweepUnit runs all six variants x SweepSeeds seeds of the paper's hybrid
// testbed (16 long-lived flows) with nproc sweep workers.
func sweepUnit(b *bench, _ int) *unitStats {
	cfgs := sweepConfigs(b)
	clocks := make(cellClocks, len(cfgs))
	regs := make([]*trace.Registry, len(cfgs))
	for i := range cfgs {
		clocks[i], regs[i] = &simClock{}, trace.NewRegistry()
		cfgs[i].Stop, cfgs[i].StopEvery, cfgs[i].Metrics = clocks[i].poll, 1, regs[i]
	}
	t0 := time.Now()
	out := experiments.SweepWithObserver(cfgs, nproc, clocks)
	u := &unitStats{wall: time.Since(t0), keep: out}
	unit := b.spans.add("unit", 0, t0, t0.Add(u.wall))
	for i, r := range out {
		clocks[i].record(b, u, unit)
		u.addRun(fmt.Sprintf("hybrid-sweep %s seed %d", r.Cfg.Variant, r.Cfg.Seed), r.Res, r.Err, regs[i])
	}
	return u
}

// rotorUnit runs FigRotor-style long-lived TDTCP on the rotor fabric with
// RotorFlowsPerRack flows per rack.
func rotorUnit(b *bench, shards int) *unitStats {
	c, reg := &simClock{}, trace.NewRegistry()
	cfg := rotorConfig(b, shards)
	cfg.Metrics, cfg.Stop, cfg.StopEvery = reg, c.poll, 1
	c.start = time.Now()
	res, err := experiments.Run(cfg)
	c.end = time.Now()
	u := &unitStats{wall: c.end.Sub(c.start), keep: res}
	unit := b.spans.add("unit", 0, c.start, c.end)
	c.record(b, u, unit)
	u.addRun(fmt.Sprintf("rotor-32 seed %d shards %d", b.seed, shards), res, err, reg)
	return u
}

// rotorConfig is the rotor-32 Run configuration at the given engine
// worker count.
func rotorConfig(b *bench, shards int) experiments.RunConfig {
	return experiments.RunConfig{Variant: experiments.TDTCP, Scenario: experiments.MultiRack(b.sz.RotorRacks),
		Flows: b.sz.RotorFlowsPerRack * b.sz.RotorRacks, WarmupWeeks: b.sz.RotorWarmup, MeasureWeeks: b.sz.RotorMeasure,
		Seed: b.seed, Shards: shards}
}

// websearchConfig is the websearch-open RunWorkload configuration, with
// MaxFlows set above the expected arrivals so reaching it means a clamp.
func websearchConfig(b *bench) experiments.WorkloadConfig {
	cfg := experiments.WorkloadConfig{Variant: experiments.TDTCP, Scenario: experiments.MultiRack(b.sz.WebRacks),
		Load: b.sz.WebLoad, WarmupWeeks: b.sz.WebWarmup, MeasureWeeks: b.sz.WebMeasure, Seed: b.seed,
		MaxFlows: b.sz.WebMaxFlows}
	if cfg.MaxFlows == 0 {
		s := cfg.Scenario
		rate := sim.Rate(workload.OptimalGbps(s.Schedule, s.TDNs)*1e9) * sim.Rate(b.sz.WebRacks)
		gap := workload.MeanInterarrival(workload.WebSearch(), cfg.Load, rate)
		horizon := sim.Dur(cfg.WarmupWeeks+cfg.MeasureWeeks) * s.Schedule.Week()
		cfg.MaxFlows = 2*int(horizon/gap) + 256
	}
	return cfg
}

// portRange is how many flows RunWorkload can number before its port space
// (1024..65535) runs out and arrivals stop.
const portRange = 0xFFFF - 1024 + 1

// websearchUnit runs Poisson web-search arrivals through RunWorkload.
func websearchUnit(b *bench, _ int) *unitStats {
	c, reg := &simClock{}, trace.NewRegistry()
	cfg := websearchConfig(b)
	cfg.Metrics, cfg.Stop, cfg.StopEvery = reg, c.poll, 1
	c.start = time.Now()
	res, err := experiments.RunWorkload(cfg)
	c.end = time.Now()
	u := &unitStats{wall: c.end.Sub(c.start), keep: res}
	unit := b.spans.add("unit", 0, c.start, c.end)
	c.record(b, u, unit)
	what := fmt.Sprintf("websearch-open seed %d", b.seed)
	switch {
	case err != nil:
		u.fail(fmt.Sprintf("%s: %v", what, err))
	case res.FlowsStarted >= cfg.MaxFlows || res.FlowsStarted >= portRange:
		// RunWorkload stops arrivals without a word at either limit.
		u.fail(fmt.Sprintf("%s: arrivals truncated at %d flows (cap %d, ports %d)", what, res.FlowsStarted, cfg.MaxFlows, portRange))
	default:
		raw := regJSON(reg)
		u.ops = append(u.ops, workloadDigest(res, raw))
		u.counts.add(regCounts(raw))
	}
	return u
}

// websearchCounts runs one websearch-open unit with a tracer on the TDN and
// VOQ categories and counts the TDN switches and VOQ drops that
// RunWorkload's registry does not count. Not timed.
func websearchCounts(b *bench) (switches, drops float64, err error) {
	var cw countWriter
	tr := trace.New(&cw, trace.CatTDN|trace.CatVOQ)
	cfg := websearchConfig(b)
	cfg.Tracer = tr
	if _, err := experiments.RunWorkload(cfg); err != nil {
		return 0, 0, err
	}
	if err := tr.Flush(); err != nil {
		return 0, 0, err
	}
	return float64(cw.switches), float64(cw.drops), nil
}

// countWriter counts named events in a JSONL trace stream.
type countWriter struct {
	partial         []byte
	switches, drops int
}

func (w *countWriter) Write(p []byte) (int, error) {
	data := append(w.partial, p...)
	for {
		i := bytes.IndexByte(data, '\n')
		if i < 0 {
			break
		}
		line := data[:i]
		switch {
		case bytes.Contains(line, []byte(`"name":"tdn_switch"`)):
			w.switches++
		case bytes.Contains(line, []byte(`"name":"voq_drop"`)):
			w.drops++
		}
		data = data[i+1:]
	}
	w.partial = append(w.partial[:0], data...)
	return len(p), nil
}

// addRun records one experiments.Run outcome as an operation.
func (u *unitStats) addRun(what string, res *experiments.Result, err error, reg *trace.Registry) {
	if err != nil {
		u.fail(fmt.Sprintf("%s: %v", what, err))
		return
	}
	raw := regJSON(reg)
	u.ops = append(u.ops, runDigest(res, raw))
	u.counts.add(regCounts(raw))
}

// fail records a failed operation.
func (u *unitStats) fail(msg string) {
	u.ops = append(u.ops, "")
	u.failures = append(u.failures, msg)
}

func regJSON(reg *trace.Registry) []byte {
	var buf bytes.Buffer
	_ = reg.WriteJSON(&buf) // a bytes.Buffer write cannot fail
	return buf.Bytes()
}

// regCounts reads the per-layer counters out of a registry dump.
func regCounts(raw []byte) counts {
	var d struct {
		Counters   map[string]int64 `json:"counters"`
		Histograms map[string]struct {
			Count uint64 `json:"count"`
		} `json:"histograms"`
	}
	if json.Unmarshal(raw, &d) != nil {
		return counts{}
	}
	c := counts{events: float64(d.Counters["sim.events_fired"]), notifies: float64(d.Histograms["rdcn.notify_lat_ns"].Count),
		segsSent: float64(d.Counters["tcp.segs_sent"]), retransmits: float64(d.Counters["tcp.retransmits"]),
		switches: float64(d.Counters["tdtcp.switches"])}
	for k, h := range d.Histograms {
		if strings.HasPrefix(k, "voq.r") && strings.HasSuffix(k, ".occ_pkts") {
			c.voqEnq += float64(h.Count)
		}
	}
	for k, v := range d.Counters {
		if strings.HasPrefix(k, "voq.r") && strings.HasSuffix(k, ".drops") {
			c.voqDrops += float64(v)
		}
	}
	return c
}
