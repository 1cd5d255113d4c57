package main

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"runtime/pprof"
	"sort"
	"time"
)

// sizes fixes how much work one workload unit does. standardSizes are the
// sizes BENCHMARK.json is measured at; the self-test shrinks them.
type sizes struct {
	SweepSeeds, SweepWarmup, SweepMeasure int

	RotorRacks, RotorFlowsPerRack, RotorWarmup, RotorMeasure int

	WebRacks, WebWarmup, WebMeasure int
	WebLoad                         float64
	// WebMaxFlows caps arrivals; 0 sets it to twice the expected arrivals
	// plus slack, so a run that reaches it has been clamped.
	WebMaxFlows int

	// ServeJobs arrive per batch at ServeRate jobs per second; ServeStarts
	// extra server start-ups per batch feed setup_s.
	ServeJobs   int
	ServeRate   float64
	ServeStarts int
}

var standardSizes = sizes{
	SweepSeeds: 4, SweepWarmup: 3, SweepMeasure: 20,
	RotorRacks: 32, RotorFlowsPerRack: 4, RotorWarmup: 1, RotorMeasure: 2,
	WebRacks: 8, WebWarmup: 1, WebMeasure: 22, WebLoad: 0.5,
	ServeJobs: 150, ServeRate: 25, ServeStarts: 10,
}

// setupProbes is how many extra set-up samples each simulation unit takes.
const setupProbes = 5

// nproc is the worker and connection bound of every workload.
var nproc = runtime.NumCPU()

// bench is one benchmark run of one workload.
type bench struct {
	w      benchWorkload
	sz     sizes
	seed   int64
	budget time.Duration
	// want is the committed digest for (workload, seed), "" when none.
	want   string
	outDir string

	// digest is the run's output digest, set by run.
	digest string
	// spans is non-nil in traced runs.
	spans *spanLog
}

// unitStats is what one workload unit measured.
type unitStats struct {
	wall time.Duration
	// setups are set-up samples: per probe of the unit's simulations
	// (summed over them, see probeSetup), or per tdserve start-up.
	// simulate sums the seam-timed event-loop phases.
	setups   []time.Duration
	simulate time.Duration
	// jobs are per-operation latencies: one simulation call, or one tdserve
	// job from its scheduled send to its result.
	jobs []time.Duration
	// ops are per-operation output digests in input order; "" marks an
	// operation that failed (and is listed in failures).
	ops      []string
	failures []string
	counts   counts
	serve    serveStats
	alloc    uint64
	peak     uint64
	// keep holds the unit's results until the end-of-unit live heap is read.
	keep any
}

// counts are the per-layer counters of one unit, read from the runs' own
// trace.Registry dumps (0 where a registry does not count them).
type counts struct {
	events, segsSent, retransmits, switches, notifies, voqEnq, voqDrops float64
}

func (c *counts) add(o counts) {
	c.events += o.events
	c.segsSent += o.segsSent
	c.retransmits += o.retransmits
	c.switches += o.switches
	c.notifies += o.notifies
	c.voqEnq += o.voqEnq
	c.voqDrops += o.voqDrops
}

// run measures the workload for the budget and returns the result line:
// end-to-end metrics, or per-layer metrics when traced.
func (b *bench) run(traced bool) (*result, error) {
	budget := b.budget
	var profPath string
	if traced {
		b.spans = newSpanLog()
		budget /= 2
		if err := os.MkdirAll(b.outDir, 0o755); err != nil {
			return nil, err
		}
		profPath = filepath.Join(b.outDir, fmt.Sprintf("cpu-%s-seed%d.pprof", b.w.name, b.seed))
	}
	plain := b.measure(budget)
	var profiled []*unitStats
	if traced {
		f, err := os.Create(profPath)
		if err != nil {
			return nil, err
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			f.Close()
			return nil, err
		}
		profiled = b.measure(budget)
		pprof.StopCPUProfile()
		if err := f.Close(); err != nil {
			return nil, err
		}
	}
	// rotor-32 must give the same digest at 1 and nproc engine workers.
	var parity *unitStats
	if b.w.shardParity {
		parity = b.measureOne(nproc)
	}
	all := append(append([]*unitStats{}, plain...), profiled...)
	if parity != nil {
		all = append(all, parity)
	}
	res := b.check(all)
	if !traced {
		res.Metrics = endToEnd(plain)
		return res, nil
	}
	lm, err := b.perLayer(plain, profiled, parity, profPath)
	if err != nil {
		return nil, err
	}
	res.Metrics = lm
	if err := b.spans.write(filepath.Join(b.outDir, fmt.Sprintf("spans-%s-seed%d.json", b.w.name, b.seed))); err != nil {
		return nil, err
	}
	return res, nil
}

// measure runs units until the next one would overrun the budget, at least
// two so that repeated runs of one seed are compared.
func (b *bench) measure(budget time.Duration) []*unitStats {
	var units []*unitStats
	start := time.Now()
	for {
		units = append(units, b.measureOne(1))
		el := time.Since(start)
		per := el / time.Duration(len(units))
		if len(units) >= 2 && el+per > budget {
			return units
		}
	}
}

// measureOne runs one unit at the given engine worker count and reads the allocation and peak-heap metrics
// of the benchmark process around it.
func (b *bench) measureOne(shards int) *unitStats {
	runtime.GC()
	a0 := readMetric(allocBytes)
	peak := startPeakSampler()
	u := b.w.unit(b, shards)
	u.alloc = readMetric(allocBytes) - a0
	u.peak = peak.stop()
	runtime.GC()
	u.peak = max(u.peak, readMetric(liveBytes))
	runtime.KeepAlive(u.keep)
	u.keep = nil
	if b.w.probes != nil {
		for i := 0; i < setupProbes; i++ {
			u.setups = append(u.setups, probeSetup(b))
		}
	}
	return u
}

// check compares every unit's per-operation digests with the first unit's
// and the run digest with the committed one, and counts failures.
func (b *bench) check(units []*unitStats) *result {
	res := &result{}
	ref := units[0].ops
	b.digest = digestOf(ref)
	for ui, u := range units {
		res.Attempted += len(u.ops)
		res.Failed += len(u.failures)
		for _, f := range u.failures {
			fmt.Fprintf(os.Stderr, "perfbench: FAIL %s\n", f)
		}
		for i, d := range u.ops {
			if i < len(ref) && d != "" && ref[i] != "" && d != ref[i] {
				res.Failed++
				fmt.Fprintf(os.Stderr, "perfbench: FAIL %s unit %d op %d: digest %s, first unit %s\n", b.w.name, ui, i, d, ref[i])
			}
		}
	}
	if b.want != "" && b.digest != b.want {
		fmt.Fprintf(os.Stderr, "perfbench: FAIL %s seed %d: digest %s, committed %s\n", b.w.name, b.seed, b.digest, b.want)
		res.Failed = res.Attempted
	}
	res.Failed = min(res.Failed, res.Attempted)
	res.Correct = res.Failed == 0 && res.Attempted > 0
	fmt.Fprintf(os.Stderr, "perfbench: %s seed %d digest %s\n", b.w.name, b.seed, b.digest)
	return res
}

// endToEnd computes the end-to-end metrics from untraced units.
func endToEnd(units []*unitStats) map[string]metric {
	var walls, allocs, peaks, setups, jobs []float64
	for _, u := range units {
		walls = append(walls, u.wall.Seconds())
		allocs = append(allocs, float64(u.alloc)/1e6)
		peaks = append(peaks, float64(u.peak)/1e6)
		for _, s := range u.setups {
			setups = append(setups, s.Seconds())
		}
		for _, j := range u.jobs {
			jobs = append(jobs, float64(j)/1e6)
		}
	}
	return map[string]metric{
		"wall_s":       {median(walls), "s"},
		"setup_s":      {median(setups), "s"},
		"alloc_mb":     {median(allocs), "MB"},
		"peak_heap_mb": {median(peaks), "MB"},
		"job_p50_ms":   {quantile(jobs, 0.5), "ms"},
		"job_p90_ms":   {quantile(jobs, 0.9), "ms"},
	}
}

const (
	allocBytes = "/gc/heap/allocs:bytes"
	liveBytes  = "/gc/heap/live:bytes"
)

func readMetric(name string) uint64 {
	s := []metrics.Sample{{Name: name}}
	metrics.Read(s)
	return s[0].Value.Uint64()
}

// peakSampler polls the live heap (as of the last GC) while a unit runs.
type peakSampler struct {
	stopc chan struct{}
	done  chan uint64
}

func startPeakSampler() *peakSampler {
	p := &peakSampler{stopc: make(chan struct{}), done: make(chan uint64, 1)}
	go func() {
		t := time.NewTicker(2 * time.Millisecond)
		defer t.Stop()
		var peak uint64
		for {
			peak = max(peak, readMetric(liveBytes))
			select {
			case <-p.stopc:
				p.done <- peak
				return
			case <-t.C:
			}
		}
	}()
	return p
}

// stop ends sampling and returns the highest live heap seen.
func (p *peakSampler) stop() uint64 {
	close(p.stopc)
	return <-p.done
}

// median returns the middle of xs (0 when empty).
func median(xs []float64) float64 { return quantile(xs, 0.5) }

// quantile returns the q-quantile of xs by linear interpolation between
// order statistics (0 when empty).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	i := int(pos)
	if i+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[i] + (pos-float64(i))*(s[i+1]-s[i])
}
