// Package invariant is the runtime consistency checker for faulted runs: it
// hooks the post-event point of every lane of a sharded engine and
// revalidates the watched tcp.Conn (scoreboard/sequence/pipe-counter
// invariants) and rdcn.Rack (VOQ accounting) state after each executed
// event, between events — never mid-update, when transient inconsistency is
// legal.
//
// Each rack lane checks only the sites its rack owns: the connections whose
// timers run on that lane and that rack's VOQs, so lanes running in parallel
// never read each other's state. The control lane, whose events run at
// barriers with every worker parked, checks every site plus the WatchFunc
// invariants. Violations are recorded per lane and merged in (time, lane)
// order, so the result is the same for every worker count.
//
// The checkers themselves live next to the state they validate
// (tcp.Conn.CheckInvariants, rdcn.Rack.CheckInvariants); this package only
// drives them and turns the first failure per site into a recorded Violation
// with the virtual timestamp and trace context needed to replay it: re-run
// with the same seeds and a trace writer, and the violation's event is the
// one right before the CatFault "invariant_violation" record.
package invariant

import (
	"bytes"
	"fmt"
	"io"
	"sort"

	"github.com/rdcn-net/tdtcp/internal/rdcn"
	"github.com/rdcn-net/tdtcp/internal/sim"
	"github.com/rdcn-net/tdtcp/internal/tcp"
	"github.com/rdcn-net/tdtcp/internal/trace"
)

// Violation is one recorded invariant failure.
type Violation struct {
	At   sim.Time
	Site string // "conn[<flow>]", "network", or a WatchFunc site
	Err  error
}

func (v Violation) String() string {
	return fmt.Sprintf("%v %s: %v", v.At, v.Site, v.Err)
}

type watchedConn struct {
	conn   *tcp.Conn
	flow   int
	failed bool
}

type watchedRack struct {
	rack   *rdcn.Rack
	failed bool
}

type watchedFunc struct {
	site   string
	flow   int
	fn     func() error
	failed bool
}

// lane is one engine lane's slice of the checker. Its counters, violations
// and snapshot are written only by the lane's own events; a site's failed
// latch is shared with the control lane, which runs only at barriers.
type lane struct {
	c    *Checker
	id   int // 0 = control lane, r+1 = rack r
	loop *sim.Loop

	conns []*watchedConn
	racks []*watchedRack

	events     uint64
	checks     uint64
	violations []Violation
	snap       []trace.Event // flight ring at the lane's first violation
	dump       []byte        // rendered post-mortem for that violation
}

// Checker validates watched objects after every simulation event on every
// lane. Construct with New (which installs the lane hooks), then register
// sites with WatchConn/WatchNetwork/WatchFunc before the run starts.
type Checker struct {
	engine  *sim.ShardedLoop
	tracer  *trace.Tracer
	metrics *trace.Registry
	flight  *trace.Flight
	dumpTo  io.Writer

	lanes  []*lane // lanes[0] is the control lane, lanes[r+1] rack r's
	conns  []*watchedConn
	racks  []*watchedRack
	funcs  []watchedFunc
	dumped bool

	// Every checks only every n-th event of each lane when > 1 (a throttle
	// for very long runs; the default 1 checks after every event).
	Every int
}

// New returns a checker hooked into the post-event point of every lane of
// engine. Existing PostEvent hooks are chained, not clobbered.
func New(engine *sim.ShardedLoop) *Checker {
	c := &Checker{engine: engine, Every: 1}
	loops := []*sim.Loop{engine.Control()}
	for r := 0; r < engine.Racks(); r++ {
		loops = append(loops, engine.RackLoop(r))
	}
	for id, loop := range loops {
		l := &lane{c: c, id: id, loop: loop}
		c.lanes = append(c.lanes, l)
		prev := loop.PostEvent
		loop.PostEvent = func() {
			if prev != nil {
				prev()
			}
			l.step()
		}
	}
	return c
}

// SetTracer attaches a tracer; violations emit trace.CatFault events (rack
// lanes through the engine's per-lane fork).
func (c *Checker) SetTracer(tr *trace.Tracer) { c.tracer = tr }

// SetMetrics attaches a registry; violations bump "invariant.violations".
func (c *Checker) SetMetrics(reg *trace.Registry) { c.metrics = reg }

// SetFlight attaches a flight recorder: each lane's first violation
// snapshots its lane's ring (f for the control lane, the lane fork's own
// ring for a rack lane), FlightSnapshot returns the snapshot of the first
// violation overall, and when w is non-nil that snapshot is dumped as JSONL
// with a banner line — the post-mortem view of the events leading into the
// failure. The dump is written by the first call to Violations, Err, or
// FlightSnapshot after a violation, when the run is parked and the first
// violation in (time, lane) order is known.
func (c *Checker) SetFlight(f *trace.Flight, w io.Writer) {
	c.flight = f
	c.dumpTo = w
}

// FlightSnapshot returns the flight recorder's contents captured at the
// first violation (nil when no violation occurred or no recorder attached).
func (c *Checker) FlightSnapshot() []trace.Event {
	if l := c.firstLane(); l != nil {
		c.flushDump(l)
		return l.snap
	}
	return nil
}

// WatchConn registers a connection; flow labels its violations. The
// connection is checked on the lane its loop belongs to, and by the control
// lane.
func (c *Checker) WatchConn(conn *tcp.Conn, flow int) {
	w := &watchedConn{conn: conn, flow: flow}
	c.conns = append(c.conns, w)
	for _, l := range c.lanes[1:] {
		if l.loop == conn.Loop {
			l.conns = append(l.conns, w)
		}
	}
}

// WatchNetwork registers every rack of a network (site "network"): each
// rack's VOQs are checked on the rack's lane, and by the control lane.
func (c *Checker) WatchNetwork(n *rdcn.Network) {
	for _, rack := range n.Racks {
		w := &watchedRack{rack: rack}
		c.racks = append(c.racks, w)
		for _, l := range c.lanes[1:] {
			if l.loop == rack.Loop() {
				l.racks = append(l.racks, w)
			}
		}
	}
}

// WatchFunc registers an arbitrary invariant: fn runs on every control-lane
// sweep — where every lane is parked at a barrier, so fn may read any state
// — and a non-nil return is a violation at site (flow labels it; pass -1 for
// non-flow sites). Like the built-in sites, a failed func is latched out of
// further checking. This is the seam for experiment-specific invariants the
// core does not know about.
func (c *Checker) WatchFunc(site string, flow int, fn func() error) {
	c.funcs = append(c.funcs, watchedFunc{site: site, flow: flow, fn: fn})
}

// Checks reports how many post-event sweeps have run, summed over lanes:
// with Every == 1 it equals the number of events the engine fired.
func (c *Checker) Checks() uint64 {
	var n uint64
	for _, l := range c.lanes {
		n += l.checks
	}
	return n
}

// Violations returns the recorded violations in (time, lane) order — at
// most one per watched site, because a failed site is latched out of
// further checking (a broken invariant persists across events and would
// otherwise flood the record with copies of itself).
func (c *Checker) Violations() []Violation {
	var out []Violation
	for _, l := range c.lanes {
		out = append(out, l.violations...)
	}
	sort.SliceStable(out, func(i, j int) bool { return out[i].At < out[j].At })
	if l := c.firstLane(); l != nil {
		c.flushDump(l)
	}
	return out
}

// Err returns the first violation as an error, or nil.
func (c *Checker) Err() error {
	vs := c.Violations()
	if len(vs) == 0 {
		return nil
	}
	v := vs[0]
	return fmt.Errorf("invariant: %s at %v: %w (%d total)", v.Site, v.At, v.Err, len(vs))
}

// firstLane returns the lane holding the first violation in (time, lane)
// order, or nil. Call only while the engine is parked.
func (c *Checker) firstLane() *lane {
	var first *lane
	for _, l := range c.lanes {
		if len(l.violations) > 0 && (first == nil || l.violations[0].At < first.violations[0].At) {
			first = l
		}
	}
	return first
}

// flushDump writes the first violation's rendered post-mortem once.
func (c *Checker) flushDump(l *lane) {
	if c.dumped || c.dumpTo == nil || l.dump == nil {
		return
	}
	c.dumped = true
	_, _ = c.dumpTo.Write(l.dump) // best-effort post-mortem
}

// step runs after every event on the lane.
func (l *lane) step() {
	c := l.c
	l.events++
	if c.Every > 1 && l.events%uint64(c.Every) != 0 {
		return
	}
	l.checks++
	conns, racks := l.conns, l.racks
	if l.id == 0 {
		conns, racks = c.conns, c.racks
	}
	for _, w := range conns {
		if w.failed {
			continue
		}
		if err := w.conn.CheckInvariants(); err != nil {
			w.failed = true
			l.report(fmt.Sprintf("conn[%d]", w.flow), w.flow, err)
		}
	}
	for _, w := range racks {
		if w.failed {
			continue
		}
		if err := w.rack.CheckInvariants(); err != nil {
			w.failed = true
			l.report("network", -1, err)
		}
	}
	if l.id != 0 {
		return
	}
	for i := range c.funcs {
		w := &c.funcs[i]
		if w.failed {
			continue
		}
		if err := w.fn(); err != nil {
			w.failed = true
			l.report(w.site, w.flow, err)
		}
	}
}

// report records one violation on the lane: a CatFault event through the
// lane's tracer (A = the lane's violation count), the metrics counter, and
// on the lane's first violation a flight-recorder snapshot and its rendered
// dump.
func (l *lane) report(site string, flow int, err error) {
	c := l.c
	now := l.loop.Now()
	l.violations = append(l.violations, Violation{At: now, Site: site, Err: err})
	c.metrics.Add("invariant.violations", 1)
	tr, flight := c.tracer, c.flight
	if l.id > 0 {
		fork := c.engine.RackTracer(l.id - 1)
		if tr != nil {
			tr = fork
		}
		if flight != nil {
			flight = fork.FlightRecorder()
		}
	}
	if tr.Enabled(trace.CatFault) {
		tr.Emit(trace.CatFault, int64(now), "invariant_violation",
			flow, -1, float64(len(l.violations)), 0, err.Error())
	}
	if flight != nil && l.snap == nil {
		// First violation on this lane: freeze the post-mortem view before
		// further events push the interesting records out of the ring.
		l.snap = flight.Events()
		if c.dumpTo != nil {
			var b bytes.Buffer
			fmt.Fprintf(&b, "== flight recorder dump (invariant violation, %s at %v): last %d events ==\n",
				site, now, flight.Len())
			_ = flight.Dump(&b)
			l.dump = b.Bytes()
		}
	}
}
