package invariant

import (
	"testing"

	"github.com/rdcn-net/tdtcp/internal/rdcn"
	"github.com/rdcn-net/tdtcp/internal/sim"
)

// run drives a bare network (schedule transitions, notifications) for 1 ms
// with a checker configured by prep, and returns the checker and network.
func run(t *testing.T, prep func(*rdcn.Network, *Checker)) (*Checker, *rdcn.Network) {
	t.Helper()
	net, err := rdcn.New(rdcn.DefaultConfig(), 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	c := New(net.Engine)
	prep(net, c)
	c.WatchNetwork(net)
	end := sim.Time(1 * sim.Millisecond)
	net.Start(end)
	net.Engine.RunUntil(end)
	return c, net
}

func TestCheckerSweepsEveryEvent(t *testing.T) {
	c, net := run(t, func(*rdcn.Network, *Checker) {})
	if c.Checks() == 0 {
		t.Fatal("checker never swept")
	}
	if got, want := c.Checks(), net.Engine.Fired(); got != want {
		t.Fatalf("checker swept %d times for %d events on all lanes", got, want)
	}
	if err := c.Err(); err != nil {
		t.Fatalf("healthy network reported violation: %v", err)
	}
	if len(c.Violations()) != 0 {
		t.Fatalf("violations recorded: %v", c.Violations())
	}
}

func TestCheckerEveryThrottles(t *testing.T) {
	full, _ := run(t, func(*rdcn.Network, *Checker) {})
	quarter, _ := run(t, func(_ *rdcn.Network, c *Checker) { c.Every = 4 })
	if quarter.Checks() == 0 {
		t.Fatal("throttled checker never swept")
	}
	// Each lane sweeps floor(events/4) times, and the unthrottled run sweeps
	// once per event, so the throttle can only round down.
	if 4*quarter.Checks() > full.Checks() {
		t.Fatalf("Every=4 swept %d times vs %d unthrottled", quarter.Checks(), full.Checks())
	}
}

func TestCheckerChainsExistingPostEvent(t *testing.T) {
	prior := 0
	c, _ := run(t, func(net *rdcn.Network, _ *Checker) {
		// prep runs after New: install a second hook the same way a second
		// subsystem would and verify the checker's own hook was not
		// clobbered.
		loop := net.Loop
		prev := loop.PostEvent
		loop.PostEvent = func() {
			if prev != nil {
				prev()
			}
			prior++
		}
	})
	if prior == 0 {
		t.Fatal("chained PostEvent hook never ran")
	}
	if c.lanes[0].checks == 0 {
		t.Fatal("checker's control-lane hook was clobbered by chaining")
	}
}

func TestNewChainsPriorPostEvent(t *testing.T) {
	net, err := rdcn.New(rdcn.DefaultConfig(), 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	// Hooks installed before New, on the control lane and on a rack lane,
	// must keep running after the checker wraps them.
	var ctl, rack uint64
	net.Loop.PostEvent = func() { ctl++ }
	net.Engine.RackLoop(0).PostEvent = func() { rack++ }
	c := New(net.Engine)
	c.WatchNetwork(net)
	end := sim.Time(1 * sim.Millisecond)
	net.Start(end)
	net.Engine.RunUntil(end)
	if ctl == 0 || rack == 0 {
		t.Fatalf("prior hooks ran %d (control) and %d (rack 0) times", ctl, rack)
	}
	if ctl != c.lanes[0].checks || rack != c.lanes[1].checks {
		t.Fatalf("prior hooks ran %d/%d times, checker swept %d/%d",
			ctl, rack, c.lanes[0].checks, c.lanes[1].checks)
	}
}
