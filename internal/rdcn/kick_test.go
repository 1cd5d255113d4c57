package rdcn

import (
	"fmt"
	"sort"
	"testing"

	"github.com/rdcn-net/tdtcp/internal/netem"
	"github.com/rdcn-net/tdtcp/internal/sim"
)

// TestKickAllSkipsOnlyBlockedDrainers pins the exactness of KickAll's kick
// set: at every probe instant of a rotor week, every drainer KickAll does not
// kick must report its path not-ok, so kicking it would have been a no-op.
// Schedule drift and circuit flaps shift or darken the data plane's view, and
// both are covered.
func TestKickAllSkipsOnlyBlockedDrainers(t *testing.T) {
	drift := func(now sim.Time) sim.Dur {
		if now/sim.Time(us(500))%2 == 0 {
			return us(37)
		}
		return -us(23) + 1
	}
	flap := func(tdn int, now sim.Time) bool { return now/sim.Time(us(70))%3 != 1 }
	cases := []struct {
		racks  int
		pinned bool
		offset func(sim.Time) sim.Dur
		ok     func(int, sim.Time) bool
	}{
		{racks: 2},
		{racks: 2, pinned: true},
		{racks: 2, pinned: true, offset: drift, ok: flap},
		{racks: 5},
		{racks: 5, offset: drift, ok: flap},
		{racks: 8},
		{racks: 8, offset: drift},
		{racks: 8, ok: flap},
	}
	for _, tc := range cases {
		name := fmt.Sprintf("racks=%d/pinned=%v/drift=%v/flap=%v",
			tc.racks, tc.pinned, tc.offset != nil, tc.ok != nil)
		t.Run(name, func(t *testing.T) {
			cfg := DefaultConfig()
			cfg.Racks = tc.racks
			cfg.HostsPerRack = 1
			cfg.Schedule = RotorWeek(tc.racks, 6, us(180), us(20))
			cfg.TDNs = RotorTDNs(tc.racks, cfg.TDNs[0], cfg.TDNs[1])
			cfg.PinnedVOQs = tc.pinned
			cfg.ScheduleOffset = tc.offset
			cfg.CircuitOK = tc.ok
			n, err := New(cfg, 1, 1)
			if err != nil {
				t.Fatal(err)
			}
			kicked := map[*netem.Drainer]bool{}
			paths := map[*netem.Drainer]netem.PathFunc{}
			for _, rack := range n.Racks {
				for _, d := range rack.drainers {
					d, p := d, d.Path
					paths[d] = p
					d.Path = func() (netem.Path, bool) { kicked[d] = true; return p() }
				}
			}
			skips, opens := 0, 0
			for _, at := range kickProbes(cfg.Schedule) {
				n.Engine.RunUntil(at)
				clear(kicked)
				n.KickAll()
				for _, rack := range n.Racks {
					for q, d := range rack.drainers {
						_, ok := paths[d]()
						switch {
						case kicked[d] && ok:
							opens++
						case !kicked[d] && ok:
							t.Fatalf("t=%v: KickAll skipped rack %d VOQ %d, whose path is open", at, rack.ID, q)
						case !kicked[d]:
							skips++
						}
					}
				}
			}
			if skips == 0 || opens == 0 {
				t.Fatalf("vacuous sweep: %d skipped and %d open kicks", skips, opens)
			}
		})
	}
}

// kickProbes returns ascending instants covering one schedule week: every
// slot boundary ±1 ns plus a 5 µs grid.
func kickProbes(s *Schedule) []sim.Time {
	var ts []sim.Time
	var b sim.Time
	for _, sl := range s.Slots {
		ts = append(ts, b, b+1)
		if b > 0 {
			ts = append(ts, b-1)
		}
		b = b.Add(sl.Dur)
	}
	for at := sim.Time(0); at < b; at = at.Add(us(5)) {
		ts = append(ts, at)
	}
	sort.Slice(ts, func(i, j int) bool { return ts[i] < ts[j] })
	return ts
}
