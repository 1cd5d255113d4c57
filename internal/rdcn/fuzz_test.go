package rdcn

import (
	"testing"

	"github.com/rdcn-net/tdtcp/internal/sim"
)

// linearAt is the slot walk Schedule.At's binary search replaces, kept as its
// oracle.
func linearAt(s *Schedule, t sim.Time) (tdn int, ok bool, slotEnd sim.Time) {
	off := sim.Dur(int64(t) % int64(s.Week()))
	if off < 0 {
		off += s.Week()
	}
	base := t.Add(-off)
	for _, sl := range s.Slots {
		if off < sl.Dur {
			return sl.TDN, sl.TDN != NightTDN, base.Add(sl.Dur)
		}
		off -= sl.Dur
		base = base.Add(sl.Dur)
	}
	panic("rdcn: schedule walk overflow")
}

// linearNextDayStart is NextDayStart's oracle on top of linearAt: step slot
// ends until one opens a day. It reports ok=false for an all-night schedule.
func linearNextDayStart(s *Schedule, t sim.Time) (sim.Time, int, bool) {
	_, _, b := linearAt(s, t)
	for i := 0; i <= len(s.Slots); i++ {
		tdn, ok, end := linearAt(s, b)
		if ok {
			return b, tdn, true
		}
		b = end
	}
	return 0, 0, false
}

// FuzzScheduleParse feeds arbitrary specs through the schedule parser: it
// must never panic, and every schedule it accepts must be well-formed — a
// positive week and an At() that always makes forward progress (the schedule
// transition loop re-arms at slotEnd, so a non-advancing slot would hang the
// simulation). At and NextDayStart must agree with the linear slot walks at
// every probe, negative times included.
func FuzzScheduleParse(f *testing.F) {
	for _, seed := range []string{
		"6x(0:180us,-:20us),1:180us,-:20us", // the paper's hybrid week
		"0:1ms",
		"-:5us,1:5us",
		"3x(1:10us)",
		"2x(2x(0:1us,-:1us),1:3us)",
		"0:180", // missing unit
		"9999999x(0:1us)",
		"1:9223372036854775807ns,0:1s", // week overflow
		" 1 : 10us , - : 2us ",
		"x(",
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, spec string) {
		s, err := ParseSchedule(spec)
		if err != nil {
			return
		}
		w := s.Week()
		if w <= 0 {
			t.Fatalf("accepted schedule with non-positive week %v: %q", w, spec)
		}
		probes := []sim.Time{
			0, sim.Time(w) - 1, sim.Time(w), 2*sim.Time(w) + 3,
			-1, -sim.Time(w) / 2, -3 * sim.Time(w),
		}
		// Every slot boundary of the first few slots, ±1 ns, in this week
		// and the previous one.
		var b sim.Time
		for i, sl := range s.Slots {
			if i == 16 {
				break
			}
			for _, base := range []sim.Time{b, b - sim.Time(w)} {
				probes = append(probes, base-1, base, base+1)
			}
			b = b.Add(sl.Dur)
		}
		for _, tm := range probes {
			tdn, ok, end := s.At(tm)
			if end <= tm {
				t.Fatalf("At(%v) slotEnd %v does not advance: %q", tm, end, spec)
			}
			if ok && (tdn < 0 || tdn == NightTDN) {
				t.Fatalf("At(%v) ok with invalid TDN %d: %q", tm, tdn, spec)
			}
			if wt, wok, wend := linearAt(s, tm); tdn != wt || ok != wok || end != wend {
				t.Fatalf("At(%v) = (%d, %v, %v), linear walk (%d, %v, %v): %q", tm, tdn, ok, end, wt, wok, wend, spec)
			}
			if wb, wt, hasDay := linearNextDayStart(s, tm); hasDay {
				if gb, gt := s.NextDayStart(tm); gb != wb || gt != wt {
					t.Fatalf("NextDayStart(%v) = (%v, %d), linear walk (%v, %d): %q", tm, gb, gt, wb, wt, spec)
				}
			}
		}
	})
}
