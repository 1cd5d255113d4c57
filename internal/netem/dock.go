package netem

import (
	"github.com/rdcn-net/tdtcp/internal/sim"
)

// Dock is the cross-lane propagation-delay stage of a ToR uplink: source and
// destination rack live on different simulation lanes of the sharded engine
// (internal/sim's ShardedLoop).
//
// A frame leaving rack src's uplink toward rack dst is staged on the SOURCE
// lane with an absolute due time (src clock + propagation delay). The
// conservative lookahead guarantees due lands at or beyond the current
// window's end, so the frame cannot be owed to the destination before the
// next barrier; at that barrier the engine runs the dock's deferred flush —
// with every worker parked — moving the staged frames into the
// DESTINATION-owned delayLine and arming its single timer on the destination
// lane. Ownership therefore alternates with the engine's phases (stage: src
// worker; delay line: dst worker; handoff: coordinator), so no field is ever
// touched by two goroutines without a barrier between them.
//
// Frames whose due expires at one instant reach the sink in (due,
// insertion) order, one call per frame.
type Dock struct {
	src, dst int
	srcLoop  *sim.Loop
	deferFn  func(src, dst int, fn func())
	out      Sink // destination-side sink

	stage   []pending // src-owned: frames docked this window
	flushFn func()    // bound once; registered with deferFn on first stage
	line    delayLine // dst-owned

	// Conservation ledger: armed is written by the source lane, delivered
	// by the destination lane; both are read only at barriers (per-shard
	// and global conservation checks), where every worker is parked.
	armed     uint64
	delivered uint64
}

// NewDock returns a dock carrying frames from rack src's lane to rack dst's
// lane, where out consumes them. deferFn registers a barrier callback with
// the engine (ShardedLoop's Defer); the dock calls it at most once per
// window.
func NewDock(src, dst int, srcLoop, dstLoop *sim.Loop, deferFn func(src, dst int, fn func()), out Sink) *Dock {
	k := &Dock{src: src, dst: dst, srcLoop: srcLoop, deferFn: deferFn, out: out}
	k.flushFn = k.flush
	k.line.init(dstLoop, k.deliver)
	return k
}

// Add stages a frame due delay after the source lane's clock. Source lane
// only.
//
//lint:hotpath runs once per cross-lane frame
func (k *Dock) Add(f Frame, delay sim.Dur) {
	if len(k.stage) == 0 {
		k.deferFn(k.src, k.dst, k.flushFn)
	}
	k.stage = append(k.stage, pending{f: f, due: k.srcLoop.Now().Add(delay)})
	k.armed++
}

// flush moves the staged frames into the destination delay line and arms
// its timer once for the whole batch. Runs on the coordinator at a barrier.
func (k *Dock) flush() {
	for _, p := range k.stage {
		k.line.insert(p.f, p.due)
	}
	k.stage = k.stage[:0]
	k.line.arm()
}

// deliver hands every frame whose due has arrived to the sink. Destination
// lane only.
//
//lint:hotpath runs once per distinct cross-lane delivery instant
func (k *Dock) deliver(batch []pending) {
	k.delivered += uint64(len(batch))
	for i := range batch {
		k.out(batch[i].f)
	}
}

// InFlight reports the number of frames the dock currently owns (staged,
// in the delay line, or awaiting their due). Barrier-only: it reads both
// lanes' counters.
func (k *Dock) InFlight() int { return int(k.armed - k.delivered) }

// Stats reports the conservation ledger: frames staged by the source lane
// and frames delivered by the destination lane.
func (k *Dock) Stats() (armed, delivered uint64) { return k.armed, k.delivered }
