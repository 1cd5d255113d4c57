// Package workload provides the flowgrind-like traffic model of §5.1 (16
// synchronized long-lived bulk flows) and the analytic reference curves the
// paper plots against: "optimal" (an idealized TCP using the full rate of
// whichever TDN is active, idle during nights) and "packet only" (the packet
// rate continuously, with no reconfiguration blackouts).
package workload

import (
	"fmt"

	"github.com/rdcn-net/tdtcp/internal/rdcn"
	"github.com/rdcn-net/tdtcp/internal/sim"
	"github.com/rdcn-net/tdtcp/internal/stats"
)

// OptimalBytes returns the bytes an idealized TCP delivers by time t: the
// active TDN's full bottleneck rate during each day, nothing during nights
// (§2.2's "optimal" curve). It is 0 for t ≤ 0.
func OptimalBytes(sch *rdcn.Schedule, tdns []rdcn.TDNParams, t sim.Time) int64 {
	return newOptimalTable(sch, tdns).bytes(t)
}

// optimalTable is the optimal curve over one schedule week: the optimal
// bytes delivered before each slot. The curve is a walk that adds a floored
// Rate.BytesIn per slot piece; every whole slot contributes the same floored
// amount in every week, so the walk to t equals whole weeks × weekBytes,
// plus the prefix before t's slot, plus the floored partial piece of that
// slot.
type optimalTable struct {
	sch       *rdcn.Schedule
	tdns      []rdcn.TDNParams
	prefix    []int64 // prefix[i] is the optimal bytes of slots [0, i)
	weekBytes int64
}

func newOptimalTable(sch *rdcn.Schedule, tdns []rdcn.TDNParams) *optimalTable {
	o := &optimalTable{sch: sch, tdns: tdns, prefix: make([]int64, len(sch.Slots))}
	for i, sl := range sch.Slots {
		o.prefix[i] = o.weekBytes
		if sl.TDN != rdcn.NightTDN {
			o.weekBytes += tdns[sl.TDN].Rate.BytesIn(sl.Dur)
		}
	}
	return o
}

// bytes evaluates the curve at t in O(log slots).
func (o *optimalTable) bytes(t sim.Time) int64 {
	if t <= 0 {
		return 0
	}
	i, start := o.sch.SlotAt(t)
	total := int64(t)/int64(o.sch.Week())*o.weekBytes + o.prefix[i]
	if sl := o.sch.Slots[i]; sl.TDN != rdcn.NightTDN {
		total += o.tdns[sl.TDN].Rate.BytesIn(t.Sub(start))
	}
	return total
}

// PacketOnlyBytes returns the bytes delivered by an idealized TCP that uses
// only the packet network: a constant rate with no blackout periods.
func PacketOnlyBytes(rate sim.Rate, t sim.Time) int64 {
	return rate.BytesIn(sim.Dur(t))
}

// OptimalSeries samples OptimalBytes on [from, to] at the given step. It
// builds the one-week table once, so each sample costs O(log slots). step
// must be positive.
func OptimalSeries(sch *rdcn.Schedule, tdns []rdcn.TDNParams, from, to sim.Time, step sim.Dur) *stats.Series {
	o := newOptimalTable(sch, tdns)
	s := newSeries("optimal", from, to, step)
	for t := from; t <= to; t = t.Add(step) {
		s.Add(t, float64(o.bytes(t)))
	}
	return s
}

// PacketOnlySeries samples PacketOnlyBytes on [from, to] at the given step,
// which must be positive.
func PacketOnlySeries(rate sim.Rate, from, to sim.Time, step sim.Dur) *stats.Series {
	s := newSeries("packet only", from, to, step)
	for t := from; t <= to; t = t.Add(step) {
		s.Add(t, float64(PacketOnlyBytes(rate, t)))
	}
	return s
}

// newSeries returns an empty series sized for the samples on [from, to] at
// step. A non-positive step would never advance past to, so it panics.
func newSeries(label string, from, to sim.Time, step sim.Dur) *stats.Series {
	if step <= 0 {
		panic(fmt.Sprintf("workload: non-positive sampling step %v", step))
	}
	n := 0
	if to >= from {
		n = int(to.Sub(from)/step) + 1
	}
	return &stats.Series{Label: label, T: make([]float64, 0, n), V: make([]float64, 0, n)}
}

// OptimalGbps returns the long-run average rate of the optimal curve.
func OptimalGbps(sch *rdcn.Schedule, tdns []rdcn.TDNParams) float64 {
	week := sim.Time(sch.Week())
	return stats.ThroughputGbps(OptimalBytes(sch, tdns, week), sch.Week())
}
