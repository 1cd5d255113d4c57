package main

import (
	"fmt"
	"os"
	"time"

	"github.com/rdcn-net/tdtcp/internal/experiments"
	"github.com/rdcn-net/tdtcp/internal/packet"
	"github.com/rdcn-net/tdtcp/internal/rdcn"
	"github.com/rdcn-net/tdtcp/internal/sim"
	"github.com/rdcn-net/tdtcp/internal/workload"
)

// perLayer computes the traced run's per-layer metrics: profile shares,
// registry counters per unit, the public-function ladder, engine and
// service readings, and the harness's own validity checks. A metric whose
// layer does not run on the workload, or that the workload's registry does
// not count, reads 0.
func (b *bench) perLayer(plain, profiled []*unitStats, parity *unitStats, profPath string) (map[string]metric, error) {
	at, err := attribute(profPath)
	if err != nil {
		return nil, err
	}
	m := map[string]metric{}
	set := func(name string, v float64, unit string) { m[name] = metric{v, unit} }
	for _, mod := range modules {
		set(mod+".self_frac", at.frac(at.self[mod]), "frac")
	}
	set("experiments.setup_frac", at.frac(at.phase[phaseSetup]), "frac")
	set("experiments.simulate_frac", at.frac(at.phase[phaseSimulate]), "frac")
	set("experiments.post_frac", at.frac(at.phase[phasePost]), "frac")
	set("rdcn.transition_frac", at.frac(at.transition), "frac")
	set("tcp.notify_frac", at.frac(at.notify), "frac")
	set("runtime.gc_frac", at.frac(at.gc), "frac")
	set("serve.overhead_frac", 1-at.frac(at.inSim), "frac")
	set("bench.profile_cpu_s", at.total.Seconds(), "s")

	// Counters of one unit (every unit of a seed does the same work).
	c := plain[0].counts
	if b.w.countUnit != nil {
		if c.switches, c.voqDrops, err = b.w.countUnit(b); err != nil {
			return nil, fmt.Errorf("%s count unit: %w", b.w.name, err)
		}
	}
	set("sim.events", c.events, "count")
	set("rdcn.notifies", c.notifies, "count")
	set("core.switches", c.switches, "count")
	set("tcp.segs_sent", c.segsSent, "count")
	set("tcp.retrans_frac", ratio(c.retransmits, c.segsSent), "frac")
	set("netem.voq_enq", c.voqEnq, "count")
	set("netem.voq_drop_frac", ratio(c.voqDrops, c.voqEnq+c.voqDrops), "frac")
	// CPU per unit of work over the profiled units: event-loop CPU per
	// event, tcp self CPU per segment sent.
	n := float64(len(profiled))
	set("sim.ns_per_event", ratio(float64(at.phase[phaseSimulate]), c.events*n), "ns")
	set("tcp.ns_per_seg", ratio(float64(at.self["tcp"]), c.segsSent*n), "ns")
	speedup := 0.0
	if parity != nil {
		var sims []float64
		for _, u := range plain {
			sims = append(sims, float64(u.simulate))
		}
		speedup = ratio(median(sims), float64(parity.simulate))
	}
	set("sim.shard_speedup", speedup, "x")

	la := runLadder(b.w.args(b.sz))
	set("workload.optimal_series_s", la.optimalSeries.Seconds(), "s")
	set("rdcn.schedule_at_ns", la.scheduleAt, "ns")
	set("packet.parse_ns", la.parse, "ns")
	set("packet.serialize_ns", la.serialize, "ns")

	var qw, run, hit, rej, lags []float64
	for _, u := range plain {
		s := u.serve
		qw = append(qw, float64(s.queueWaitP90)/1e6)
		run = append(run, float64(s.runP50)/1e6)
		hit = append(hit, s.cacheHitFrac)
		rej = append(rej, s.rejectedFrac)
		for _, l := range s.lags {
			lags = append(lags, float64(l)/1e6)
		}
	}
	set("serve.queue_wait_p90_ms", median(qw), "ms")
	set("serve.run_p50_ms", median(run), "ms")
	set("serve.cache_hit_frac", median(hit), "frac")
	set("serve.rejected_frac", median(rej), "frac")
	set("loadgen.lag_ms", quantile(lags, 0.9), "ms")

	overhead := ratio(cost(profiled), cost(plain)) - 1
	set("bench.profile_overhead_frac", overhead, "frac")
	at.report(b.w.name, overhead)
	return m, nil
}

// cost is the untraced-vs-traced comparison basis: the median job latency.
func cost(units []*unitStats) float64 {
	var jobs []float64
	for _, u := range units {
		for _, j := range u.jobs {
			jobs = append(jobs, float64(j))
		}
	}
	return median(jobs)
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// ladderResult holds the public layer functions' timings.
type ladderResult struct {
	optimalSeries               time.Duration // one OptimalSeries + PacketOnlySeries pair
	scheduleAt                  float64       // ns per Schedule.At over a week of instants
	parse, serialize            float64       // ns per segment, mean of data and SACK ACK
	parseData, parseAck         float64
	serializeData, serializeAck float64
}

// sink keeps timed results alive so the compiler cannot drop the calls.
var sink any

// runLadder times the public layer functions with the workload's arguments
// and prints the Schedule.At rungs at 2, 8 and 32 racks for reference.
func runLadder(a layerArgs) ladderResult {
	var r ladderResult
	if a.to != 0 {
		r.optimalSeries = timePer(200*time.Millisecond, func() {
			sink = workload.OptimalSeries(a.sched, a.tdns, a.from, a.to, a.step)
			sink = workload.PacketOnlySeries(a.tdns[0].Rate, a.from, a.to, a.step)
		})
	}
	r.scheduleAt = scheduleAtNs(a.sched)
	for _, n := range []int{2, 8, 32} {
		s := experiments.MultiRack(n).Schedule
		if n == 2 {
			s = experiments.Hybrid().Schedule
		}
		fmt.Fprintf(os.Stderr, "ladder rdcn.(*Schedule).At %2d racks: %8.1f ns/call\n", n, scheduleAtNs(s))
	}
	data := &packet.Segment{Src: 1, Dst: 2, TTL: 64, Proto: packet.ProtoTCP, TCP: packet.TCPHeader{
		SrcPort: 40000, DstPort: 40000, Seq: 1 << 20, Ack: 1, Flags: packet.FlagACK | packet.FlagPSH,
		Window: 65535, TDPresent: true, TDFlags: packet.TDFlagData, DataTDN: 1, PayloadLen: 8960}}
	ack := &packet.Segment{Src: 2, Dst: 1, TTL: 64, Proto: packet.ProtoTCP, TCP: packet.TCPHeader{
		SrcPort: 40000, DstPort: 40000, Seq: 1, Ack: 1 << 20, Flags: packet.FlagACK, Window: 65535,
		TDPresent: true, TDFlags: packet.TDFlagACK, AckTDN: 1,
		SACK: []packet.SACKBlock{{Start: 1<<20 + 8960, End: 1<<20 + 3*8960}, {Start: 1<<20 + 4*8960, End: 1<<20 + 5*8960},
			{Start: 1<<20 + 6*8960, End: 1<<20 + 7*8960}}}}
	r.serializeData, r.parseData = codecNs(data)
	r.serializeAck, r.parseAck = codecNs(ack)
	r.parse, r.serialize = (r.parseData+r.parseAck)/2, (r.serializeData+r.serializeAck)/2
	fmt.Fprintf(os.Stderr, "ladder packet: data serialize %.1f ns parse %.1f ns; SACK ACK serialize %.1f ns parse %.1f ns\n",
		r.serializeData, r.parseData, r.serializeAck, r.parseAck)
	if a.to != 0 {
		fmt.Fprintf(os.Stderr, "ladder workload.OptimalSeries+PacketOnlySeries: %.4f s/call\n", r.optimalSeries.Seconds())
	}
	return r
}

// timePer runs fn at least once and until min has passed, returning the
// mean time per call.
func timePer(min time.Duration, fn func()) time.Duration {
	t0 := time.Now()
	n := 0
	for n == 0 || time.Since(t0) < min {
		fn()
		n++
	}
	return time.Since(t0) / time.Duration(n)
}

// scheduleAtNs times Schedule.At over one week of instants 5 µs apart, the
// spacing OptimalSeries samples at.
func scheduleAtNs(s *rdcn.Schedule) float64 {
	step := 5 * sim.Microsecond
	calls := int(s.Week() / step)
	var acc int
	d := timePer(50*time.Millisecond, func() {
		for t := sim.Time(0); t < sim.Time(s.Week()); t = t.Add(step) {
			tdn, _, _ := s.At(t)
			acc += tdn
		}
	})
	sink = acc
	return float64(d) / float64(calls)
}

// codecNs times Serialize and Parse of one segment.
func codecNs(s *packet.Segment) (serialize, parse float64) {
	const n = 1000
	buf := make([]byte, 0, 128)
	ser := timePer(20*time.Millisecond, func() {
		for i := 0; i < n; i++ {
			buf = s.Serialize(buf[:0])
		}
	})
	var dst packet.Segment
	dst.TCP.SACK = make([]packet.SACKBlock, 0, 4)
	par := timePer(20*time.Millisecond, func() {
		for i := 0; i < n; i++ {
			if err := packet.Parse(buf, &dst); err != nil {
				panic(err) // buf came from Serialize: a parse error is a codec bug
			}
		}
	})
	sink = dst
	return float64(ser) / n, float64(par) / n
}
