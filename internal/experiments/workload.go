package experiments

import (
	"fmt"
	"os"
	"sync"

	"github.com/rdcn-net/tdtcp/internal/netem"
	"github.com/rdcn-net/tdtcp/internal/obs"
	"github.com/rdcn-net/tdtcp/internal/packet"
	"github.com/rdcn-net/tdtcp/internal/rdcn"
	"github.com/rdcn-net/tdtcp/internal/sim"
	"github.com/rdcn-net/tdtcp/internal/stats"
	"github.com/rdcn-net/tdtcp/internal/tcp"
	"github.com/rdcn-net/tdtcp/internal/trace"
	"github.com/rdcn-net/tdtcp/internal/workload"
)

// hostMux demultiplexes one host's frames to many connections by TCP
// destination port, and fans TDN notifications out to every registered flow.
// The two-rack experiments wire exactly one connection per host; multi-rack
// workloads need several, so the mux owns the host's Recv/NotifyTDN upcalls.
//
// The map is looked up, never ranged over, so event order stays deterministic.
type hostMux struct {
	seg    packet.Segment
	conns  map[uint16]*tcp.Conn
	notify []func(tdn int, epoch uint32)
}

func newHostMux() *hostMux {
	m := &hostMux{conns: make(map[uint16]*tcp.Conn)}
	m.seg.TCP.SACK = make([]packet.SACKBlock, 0, 4)
	return m
}

func (m *hostMux) recv(fr netem.Frame) {
	if err := packet.Parse(fr.Wire, &m.seg); err != nil {
		return // corrupted frames are dropped silently, as on a real NIC
	}
	if c, ok := m.conns[m.seg.TCP.DstPort]; ok {
		c.Input(&m.seg)
	}
}

func (m *hostMux) notifyTDN(tdn int, epoch uint32) {
	for _, fn := range m.notify {
		fn(tdn, epoch)
	}
}

// muxNet overlays a hostMux on every host of a network, so flows can be wired
// between arbitrary rack/host pairs instead of the two-rack one-flow-per-host
// layout of BuildFlow.
type muxNet struct {
	net   *rdcn.Network
	muxes [][]*hostMux // [rack][host]
}

func newMuxNet(net *rdcn.Network) *muxNet {
	mn := &muxNet{net: net, muxes: make([][]*hostMux, len(net.Racks))}
	for r, rack := range net.Racks {
		mn.muxes[r] = make([]*hostMux, len(rack.Hosts))
		for h, host := range rack.Hosts {
			m := newHostMux()
			mn.muxes[r][h] = m
			host.Recv = m.recv
			host.NotifyTDN = m.notifyTDN
		}
	}
	return mn
}

// BuildFlow wires one single-path flow from (srcRack, srcHost) to (dstRack,
// dstHost). Both endpoints use the same port number, which must be unique
// per endpoint host — it is the demux key on both sides. MPTCP and the reTCP
// variants are two-rack constructs (subflow pinning and the circuit-up signal
// have no rotor analogue) and are rejected.
func (mn *muxNet) BuildFlow(srcRack, srcHost, dstRack, dstHost int,
	port uint16, v Variant, opt FlowOptions) (*Flow, error) {
	switch v {
	case MPTCP, ReTCP, ReTCPDyn:
		return nil, fmt.Errorf("experiments: variant %s is not supported on the multi-rack mux path", v)
	default:
		// Cubic, DCTCP, Reno, TDTCP are single-path and rack-count-agnostic.
	}
	for _, ep := range [...]struct{ rack, host int }{{srcRack, srcHost}, {dstRack, dstHost}} {
		if ep.rack < 0 || ep.rack >= len(mn.net.Racks) {
			return nil, fmt.Errorf("experiments: rack %d out of range", ep.rack)
		}
		if ep.host < 0 || ep.host >= len(mn.net.Racks[ep.rack].Hosts) {
			return nil, fmt.Errorf("experiments: host %d out of range", ep.host)
		}
	}
	if srcRack == dstRack && srcHost == dstHost {
		return nil, fmt.Errorf("experiments: flow endpoints coincide (rack %d host %d)", srcRack, srcHost)
	}
	sm, dm := mn.muxes[srcRack][srcHost], mn.muxes[dstRack][dstHost]
	if _, dup := sm.conns[port]; dup {
		return nil, fmt.Errorf("experiments: port %d already in use on rack %d host %d", port, srcRack, srcHost)
	}
	if _, dup := dm.conns[port]; dup {
		return nil, fmt.Errorf("experiments: port %d already in use on rack %d host %d", port, dstRack, dstHost)
	}

	sndCfg, rcvCfg, err := singlePathConfigs(mn.net, v, opt)
	if err != nil {
		return nil, err
	}
	sndCfg.Slab, rcvCfg.Slab = opt.slabFor(srcRack), opt.slabFor(dstRack)
	hs := mn.net.Racks[srcRack].Hosts[srcHost]
	hr := mn.net.Racks[dstRack].Hosts[dstHost]
	f := &Flow{Variant: v}
	// Each endpoint lives on its own rack's lane so its timers, retransmits,
	// and slab traffic stay shard-local under the sharded engine.
	f.Snd = tcp.NewConn(hs.Rack.Loop(), sndCfg, func(s *packet.Segment) { hs.Send(s) })
	f.Rcv = tcp.NewConn(hr.Rack.Loop(), rcvCfg, func(s *packet.Segment) { hr.Send(s) })
	f.Snd.LocalAddr, f.Snd.RemoteAddr = hs.Addr, hr.Addr
	f.Snd.LocalPort, f.Snd.RemotePort = port, port
	f.Rcv.LocalAddr, f.Rcv.RemoteAddr = hr.Addr, hs.Addr
	f.Rcv.LocalPort, f.Rcv.RemotePort = port, port
	f.Rcv.Listen()

	sm.conns[port] = f.Snd
	dm.conns[port] = f.Rcv
	if v == TDTCP {
		sm.notify = append(sm.notify, func(tdn int, epoch uint32) { f.Snd.Notify(tdn, epoch) })
		dm.notify = append(dm.notify, func(tdn int, epoch uint32) { f.Rcv.Notify(tdn, epoch) })
	}
	return f, nil
}

// WorkloadConfig specifies one open-loop flow-workload run: finite flows with
// sizes drawn from a distribution arrive as a Poisson process and run to
// completion, the datacenter-workload counterpart of RunConfig's long-running
// §5.1 flows.
type WorkloadConfig struct {
	Variant  Variant
	Scenario Scenario
	// Dist is the flow-size distribution (default workload.WebSearch()).
	Dist *workload.FlowSizeCDF
	// Load is the offered load as a fraction of the fabric's aggregate
	// schedule-weighted capacity (default 0.3).
	Load float64
	// Hosts is the host count per rack (default 4).
	Hosts int
	// WarmupWeeks precede the measurement window of MeasureWeeks (defaults
	// 1 and 4). Arrivals run over the whole horizon; FCTs are recorded for
	// flows arriving inside the window.
	WarmupWeeks, MeasureWeeks int
	Seed                      int64
	// Shards is the sharded engine's worker count (default 1); results and
	// traces are byte-identical for every value (see RunConfig.Shards).
	Shards int
	// MaxFlows caps total arrivals so a mis-set load cannot spawn unbounded
	// state (default 512).
	MaxFlows int
	// SampleEvery is the VOQ-occupancy sampling cadence (default 5 µs;
	// negative is an error).
	SampleEvery sim.Dur
	// MarkThresh is the ECN marking threshold; defaults to 5 packets when
	// the variant is DCTCP, otherwise 0.
	MarkThresh int
	Notify     *rdcn.NotifyProfile
	Flow       FlowOptions
	Tracer     *trace.Tracer
	// Metrics, when non-nil, is populated with run-level counters plus the
	// run's histograms: flow completion times ("fct.ns") and the same
	// per-TDN RTT / VOQ occupancy / notification-latency / deadman-lag
	// histograms as RunConfig.Metrics.
	Metrics *trace.Registry
	// Flight and DisableFlight mirror RunConfig: the always-on flight
	// recorder, created by default, dumped to stderr on conservation failure
	// or panic. Parallel sweeps give every run its own recorder, like the
	// Tracer contract.
	Flight        *trace.Flight
	DisableFlight bool
	// Meter, when non-nil, taps the run for live progress (see
	// RunConfig.Meter); workload runs additionally count flow arrivals and
	// completions through it.
	Meter *obs.Meter
	// Stop and StopEvery mirror RunConfig: the cooperative cancellation
	// seam, polled between events, that makes RunWorkload return an error
	// wrapping ErrCancelled without perturbing the executed prefix.
	Stop      func() bool
	StopEvery int
}

func (cfg *WorkloadConfig) fillDefaults() {
	if cfg.Scenario.Name == "" {
		cfg.Scenario = MultiRack(4)
	}
	if cfg.Dist == nil {
		cfg.Dist = workload.WebSearch()
	}
	if cfg.Load == 0 {
		cfg.Load = 0.3
	}
	if cfg.Hosts == 0 {
		cfg.Hosts = 4
	}
	if cfg.WarmupWeeks == 0 {
		cfg.WarmupWeeks = 1
	}
	if cfg.MeasureWeeks == 0 {
		cfg.MeasureWeeks = 4
	}
	if cfg.Seed == 0 {
		cfg.Seed = 1
	}
	if cfg.MaxFlows == 0 {
		cfg.MaxFlows = 512
	}
	if cfg.Shards == 0 {
		cfg.Shards = 1
	}
	if cfg.SampleEvery == 0 {
		cfg.SampleEvery = 5 * sim.Microsecond
	}
	if cfg.MarkThresh == 0 && cfg.Variant == DCTCP {
		cfg.MarkThresh = 5
	}
}

// WorkloadResult carries the outcome of one workload run.
type WorkloadResult struct {
	Variant Variant
	Cfg     WorkloadConfig

	// FCT holds completion times of flows that arrived inside the
	// measurement window and finished before the horizon (the usual
	// open-loop censoring).
	FCT stats.FCT
	// FlowsStarted counts all arrivals; FlowsCompleted counts flows whose
	// FIN was acknowledged before the horizon.
	FlowsStarted, FlowsCompleted int
	// BytesOffered sums the sizes of all arrived flows.
	BytesOffered int64
	// GoodputGbps is aggregate application-delivered throughput over the
	// measurement window; MeanVOQ is the mean total VOQ occupancy (packets,
	// summed over racks) over the same window.
	GoodputGbps float64
	MeanVOQ     float64
	// Frame-conservation ledger at the horizon (see rdcn.FrameLedger).
	FramesSent, FramesDelivered, FramesMisrouted uint64
	// Flight is the run's flight recorder (nil when disabled).
	Flight *trace.Flight
}

// RunWorkload executes one open-loop workload experiment. Flow arrivals are a
// Poisson process whose mean rate offers cfg.Load of the fabric's aggregate
// capacity; each arrival picks uniform source and destination (distinct racks)
// and a size from cfg.Dist, all from the loop's seeded RNG, so runs are fully
// deterministic. Frame conservation is checked at the horizon.
func RunWorkload(cfg WorkloadConfig) (*WorkloadResult, error) {
	cfg.fillDefaults()
	if cfg.SampleEvery < 0 {
		return nil, fmt.Errorf("experiments: SampleEvery %v must be positive", cfg.SampleEvery)
	}
	racks := cfg.Scenario.Racks
	if racks == 0 {
		racks = 2
	}
	if cfg.Flow.Slab == nil && cfg.Flow.Slabs == nil {
		// One slab per rack per workload run, so each lane's connections pack
		// into lane-private columns; completed flows' rows are not recycled
		// (they are few and small), matching the retained result objects.
		slabs := make([]*tcp.Slab, racks)
		for r := range slabs {
			slabs[r] = tcp.NewSlab(256, 512)
		}
		cfg.Flow.Slabs = slabs
	}
	switch cfg.Variant {
	case TDTCP, Cubic, DCTCP, Reno:
	default:
		return nil, fmt.Errorf("experiments: variant %s is not supported by RunWorkload", cfg.Variant)
	}

	flight := cfg.Flight
	if flight == nil && !cfg.DisableFlight {
		flight = trace.NewFlight(trace.DefaultFlightLen, trace.DefaultFlightCats)
	}
	tracer := cfg.Tracer.WithFlight(flight)
	defer func() {
		if r := recover(); r != nil {
			dumpFlight(os.Stderr, flight, fmt.Sprintf("panic: %v", r))
			panic(r)
		}
	}()

	ncfg := rdcn.DefaultConfig()
	ncfg.Racks = racks
	ncfg.HostsPerRack = cfg.Hosts
	ncfg.TDNs = cfg.Scenario.TDNs
	ncfg.Schedule = cfg.Scenario.Schedule
	ncfg.VOQCap = cfg.Scenario.VOQCap
	ncfg.MarkThresh = cfg.MarkThresh
	if cfg.Notify != nil {
		ncfg.Notify = *cfg.Notify
	}
	// The network's sharded engine runs every workload (see
	// RunConfig.Shards): one lane per rack plus the control lane, where the
	// arrival process lives.
	net, err := rdcn.New(ncfg, cfg.Seed, cfg.Shards)
	if err != nil {
		return nil, err
	}
	engine, loop := net.Engine, net.Loop
	attachMeter(cfg.Meter, engine)
	if cfg.Stop != nil {
		engine.SetStopCheck(cfg.StopEvery, cfg.Stop)
	}
	net.SetTracer(tracer)
	if m := cfg.Metrics; m != nil {
		net.NotifyLat = m.Hist("rdcn.notify_lat_ns")
		for _, rack := range net.Racks {
			occ := m.Hist(fmt.Sprintf("voq.r%d.occ_pkts", rack.ID))
			for _, v := range rack.VOQs() {
				v.OccHist = occ
			}
		}
	}
	fctHist := cfg.Metrics.Hist("fct.ns")
	mn := newMuxNet(net)

	week := cfg.Scenario.Schedule.Week()
	measureStart := sim.Time(sim.Dur(cfg.WarmupWeeks) * week)
	end := measureStart.Add(sim.Dur(cfg.MeasureWeeks) * week)
	net.Start(end)

	// Aggregate capacity = per-rack schedule-weighted uplink rate × racks.
	aggRate := sim.Rate(workload.OptimalGbps(cfg.Scenario.Schedule, cfg.Scenario.TDNs)*1e9) * sim.Rate(racks)
	meanGap := workload.MeanInterarrival(cfg.Dist, cfg.Load, aggRate)

	res := &WorkloadResult{Variant: cfg.Variant, Cfg: cfg}
	var flows []*Flow
	var buildErr error
	nextPort := 1024
	// Completions fire on the sender's rack lane, so each lane gets a private
	// done-list (single writer); they are merged into the result in canonical
	// (completion time, rack) order after the horizon. The FCT histogram and
	// the meter are atomic and order-independent, so those record inline.
	type doneRec struct {
		size  int64
		start sim.Time
		done  sim.Time
	}
	perRack := make([][]doneRec, racks)
	var spawn func()
	spawn = func() {
		if buildErr != nil || res.FlowsStarted >= cfg.MaxFlows || nextPort > 0xFFFF {
			return // stop the arrival process; pending flows run out
		}
		rng := loop.Rand()
		src := rng.Intn(racks)
		dst := (src + 1 + rng.Intn(racks-1)) % racks
		sh, dh := rng.Intn(cfg.Hosts), rng.Intn(cfg.Hosts)
		size := cfg.Dist.Sample(rng)
		port := uint16(nextPort)
		nextPort++
		f, err := mn.BuildFlow(src, sh, dst, dh, port, cfg.Variant, cfg.Flow)
		if err != nil {
			buildErr = err
			return
		}
		id := res.FlowsStarted
		rt := net.Racks[src].Tracer()
		f.SetTracer(rt, id)
		wireFlowHists(cfg.Metrics, f, len(cfg.Scenario.TDNs))
		start := loop.Now()
		res.FlowsStarted++
		res.BytesOffered += size
		cfg.Meter.FlowStarted()
		// The flow's lifetime (arrival to FIN-ack) is a causal span; flows
		// still open at the horizon leave theirs unclosed. The span opens on
		// the shared tracer (arrivals run at control instants) and closes on
		// the sender lane's fork; the ids pair up regardless.
		sp := tracer.BeginSpan(trace.CatTCP, int64(start), "flow", id, -1, 0)
		f.Snd.OnDone = func(now sim.Time) {
			cfg.Meter.FlowDone()
			rt.EndSpan(trace.CatTCP, int64(now), "flow", id, -1, sp, float64(size), 0)
			perRack[src] = append(perRack[src], doneRec{size: size, start: start, done: now})
			if start >= measureStart {
				fctHist.Record(int64(now.Sub(start)))
			}
		}
		flows = append(flows, f)
		f.Start(size)
		f.Snd.Close() // queue the FIN behind the data; its ACK is the FCT instant
		loop.After(workload.Interarrival(rng, meanGap), spawn)
	}
	loop.After(workload.Interarrival(loop.Rand(), meanGap), spawn)

	delivered := func() float64 {
		var sum int64
		for _, f := range flows {
			sum += f.Delivered()
		}
		return float64(sum)
	}
	voqLen := func() float64 {
		n := 0
		for _, rack := range net.Racks {
			n += rack.QueueLen()
		}
		return float64(n)
	}

	engine.RunUntil(measureStart)
	if engine.Stopped() {
		return nil, cancelledErr(fmt.Sprintf("workload %s on %s", cfg.Variant, cfg.Scenario.Name), engine)
	}
	baseline := delivered()
	voq := stats.NewSampler(loop, string(cfg.Variant), cfg.SampleEvery, end, voqLen)
	engine.RunUntil(end)
	if engine.Stopped() {
		return nil, cancelledErr(fmt.Sprintf("workload %s on %s", cfg.Variant, cfg.Scenario.Name), engine)
	}

	if buildErr != nil {
		return nil, buildErr
	}
	// Merge the per-lane done-lists (each already in lane execution order,
	// hence nondecreasing completion time) in canonical (done, rack) order —
	// the same order a sequential execution completes them in.
	heads := make([]int, racks)
	for {
		best := -1
		for r := 0; r < racks; r++ {
			if heads[r] >= len(perRack[r]) {
				continue
			}
			if best < 0 || perRack[r][heads[r]].done < perRack[best][heads[best]].done {
				best = r
			}
		}
		if best < 0 {
			break
		}
		d := perRack[best][heads[best]]
		heads[best]++
		res.FlowsCompleted++
		if d.start >= measureStart {
			res.FCT.Record(d.size, d.start, d.done)
		}
	}
	res.GoodputGbps = stats.ThroughputGbps(int64(delivered()-baseline), end.Sub(measureStart))
	res.MeanVOQ = voq.Series.Mean()
	res.FramesSent, res.FramesDelivered, res.FramesMisrouted = net.FrameLedger()
	if err := net.CheckConservation(); err != nil {
		dumpFlight(os.Stderr, flight, fmt.Sprintf("conservation failure: %v", err))
		dumpEngineFlights(os.Stderr, engine, fmt.Sprintf("conservation failure: %v", err))
		return nil, fmt.Errorf("experiments: workload run %s: %w", cfg.Scenario.Name, err)
	}
	res.Flight = flight
	if m := cfg.Metrics; m != nil {
		m.Set("workload.goodput_gbps", res.GoodputGbps)
		m.Set("workload.mean_voq_pkts", res.MeanVOQ)
		m.Add("workload.flows_started", int64(res.FlowsStarted))
		m.Add("workload.flows_completed", int64(res.FlowsCompleted))
		m.Add("workload.bytes_offered", res.BytesOffered)
		m.Add("sim.events_fired", int64(engine.Fired()))
		m.Set("sim.virtual_seconds", float64(engine.Now())/1e9)
	}
	return res, nil
}

// WorkloadSweepResult pairs one workload sweep cell with its outcome.
type WorkloadSweepResult struct {
	Cfg WorkloadConfig
	Res *WorkloadResult
	Err error
}

// SweepWorkload executes every configuration, workers at a time, with results
// indexed by input position (see Sweep for the concurrency contract; runs
// share no state, and configurations must not share a Tracer, Metrics
// registry, or Flight recorder when workers exceeds 1 — the default
// per-run flight recorder is always private).
func SweepWorkload(cfgs []WorkloadConfig, workers int) []WorkloadSweepResult {
	return SweepWorkloadWithObserver(cfgs, workers, nil)
}

// SweepWorkloadWithObserver is SweepWorkload with per-cell progress callbacks
// (see SweepWithObserver; nil obs = plain SweepWorkload).
func SweepWorkloadWithObserver(cfgs []WorkloadConfig, workers int, obs SweepObserver) []WorkloadSweepResult {
	out := make([]WorkloadSweepResult, len(cfgs))
	runCell := func(worker, i int) {
		if obs != nil {
			obs.CellStart(worker, i)
		}
		res, err := RunWorkload(cfgs[i])
		out[i] = WorkloadSweepResult{Cfg: cfgs[i], Res: res, Err: err}
		if obs != nil {
			obs.CellDone(worker, i, err)
		}
	}
	if workers <= 1 {
		for i := range cfgs {
			runCell(0, i)
		}
		return out
	}
	if workers > len(cfgs) {
		workers = len(cfgs)
	}
	idx := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(worker int) {
			defer wg.Done()
			for i := range idx {
				runCell(worker, i)
			}
		}(w)
	}
	for i := range cfgs {
		idx <- i
	}
	close(idx)
	wg.Wait()
	return out
}
