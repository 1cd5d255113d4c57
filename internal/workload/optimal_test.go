package workload

import (
	"fmt"
	"math/rand"
	"testing"

	"github.com/rdcn-net/tdtcp/internal/rdcn"
	"github.com/rdcn-net/tdtcp/internal/sim"
)

// walkOptimalBytes is the slot walk the closed form replaces, kept as its
// oracle: from t=0, add the active TDN's floored BytesIn for every slot piece
// up to t.
func walkOptimalBytes(sch *rdcn.Schedule, tdns []rdcn.TDNParams, t sim.Time) int64 {
	var total int64
	var cur sim.Time
	for cur < t {
		tdn, ok, slotEnd := sch.At(cur)
		end := slotEnd
		if end > t {
			end = t
		}
		if ok {
			total += tdns[tdn].Rate.BytesIn(end.Sub(cur))
		}
		cur = end
	}
	return total
}

// oddRotor is a rotor schedule whose day, night and rates are chosen so
// that every floor in BytesIn actually discards a remainder.
func oddRotor(racks int) (*rdcn.Schedule, []rdcn.TDNParams) {
	sch := rdcn.RotorWeek(racks, 6, 180*sim.Microsecond+7, 20*sim.Microsecond+3)
	tdns := rdcn.RotorTDNs(racks,
		rdcn.TDNParams{Rate: 10*sim.Gbps - 3, Delay: 49 * sim.Microsecond},
		rdcn.TDNParams{Rate: 100*sim.Gbps + 13, Delay: 19 * sim.Microsecond})
	return sch, tdns
}

// probeTimes returns t ≤ 0, every slot boundary of the first week and of a
// week several weeks out (each ±1 ns), and seeded random instants across
// the first five weeks.
func probeTimes(sch *rdcn.Schedule) []sim.Time {
	week := sim.Time(sch.Week())
	ts := []sim.Time{-3 * week, -1, 0, 1}
	for _, base := range []sim.Time{0, 4 * week} {
		b := base
		for _, sl := range sch.Slots {
			ts = append(ts, b-1, b, b+1)
			b = b.Add(sl.Dur)
		}
		ts = append(ts, b-1, b, b+1)
	}
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 200; i++ {
		ts = append(ts, sim.Time(rng.Int63n(int64(5*week))))
	}
	return ts
}

func TestOptimalBytesMatchesSlotWalk(t *testing.T) {
	for _, racks := range []int{2, 5, 8, 32} {
		t.Run(fmt.Sprint(racks), func(t *testing.T) {
			sch, tdns := oddRotor(racks)
			for _, tm := range probeTimes(sch) {
				if got, want := OptimalBytes(sch, tdns, tm), walkOptimalBytes(sch, tdns, tm); got != want {
					t.Fatalf("OptimalBytes(%v) = %d, slot walk %d", tm, got, want)
				}
			}
		})
	}
}

func TestOptimalSeriesMatchesOptimalBytes(t *testing.T) {
	for _, racks := range []int{2, 5} {
		sch, tdns := oddRotor(racks)
		week := sim.Time(sch.Week())
		from, to := -week/3, 3*week+17
		step := 5*sim.Microsecond + 1
		s := OptimalSeries(sch, tdns, from, to, step)
		if want := int((to-from)/sim.Time(step)) + 1; s.Len() != want {
			t.Fatalf("%d racks: series has %d samples, want %d", racks, s.Len(), want)
		}
		for i := 0; i < s.Len(); i++ {
			tm := from.Add(sim.Dur(i) * step)
			if want := float64(OptimalBytes(sch, tdns, tm)); s.V[i] != want {
				t.Fatalf("%d racks: sample %d at %v = %v, OptimalBytes %v", racks, i, tm, s.V[i], want)
			}
		}
	}
}

func TestSeriesRejectNonPositiveStep(t *testing.T) {
	sch, tdns := params()
	for _, step := range []sim.Dur{0, -sim.Microsecond} {
		for name, f := range map[string]func(){
			"OptimalSeries":    func() { OptimalSeries(sch, tdns, 0, sim.Time(sim.Millisecond), step) },
			"PacketOnlySeries": func() { PacketOnlySeries(10*sim.Gbps, 0, sim.Time(sim.Millisecond), step) },
		} {
			func() {
				defer func() {
					if recover() == nil {
						t.Errorf("%s with step %v did not panic", name, step)
					}
				}()
				f()
			}()
		}
	}
}
