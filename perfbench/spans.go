package main

import (
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"sync"
	"time"
)

// spanLog records spans around the benchmark's own calls into the program
// (units, simulations and their seam-timed phases, tdserve jobs). Spans stay
// in memory and are written out when the run ends. A nil log records
// nothing, so untraced runs pay one nil check per span.
type spanLog struct {
	mu    sync.Mutex
	t0    time.Time
	spans []span
}

type span struct {
	Name   string  `json:"name"`
	ID     int     `json:"id"`
	Parent int     `json:"parent"`
	Start  float64 `json:"start_s"`
	End    float64 `json:"end_s"`
}

func newSpanLog() *spanLog { return &spanLog{t0: time.Now()} }

// add records a finished span and returns its id (0 on a nil log, which is
// also the parent id of root spans).
func (l *spanLog) add(name string, parent int, start, end time.Time) int {
	id := l.begin(name, parent, start)
	l.end(id, end)
	return id
}

// begin opens a span whose end is set later by end.
func (l *spanLog) begin(name string, parent int, start time.Time) int {
	if l == nil {
		return 0
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	id := len(l.spans) + 1
	l.spans = append(l.spans, span{Name: name, ID: id, Parent: parent, Start: start.Sub(l.t0).Seconds()})
	return id
}

func (l *spanLog) end(id int, t time.Time) {
	if l == nil {
		return
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	l.spans[id-1].End = t.Sub(l.t0).Seconds()
}

// write dumps the spans as JSON and prints per-name totals and self times
// (duration minus the part covered by child spans) to standard error.
func (l *spanLog) write(path string) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	b, err := json.Marshal(l.spans)
	if err != nil {
		return err
	}
	if err := os.WriteFile(path, b, 0o644); err != nil {
		return err
	}
	type agg struct {
		n           int
		total, self float64
	}
	by := map[string]*agg{}
	kids := make([][]span, len(l.spans)+1)
	for _, s := range l.spans {
		kids[s.Parent] = append(kids[s.Parent], s)
	}
	for _, s := range l.spans {
		a := by[s.Name]
		if a == nil {
			a = &agg{}
			by[s.Name] = a
		}
		a.n++
		a.total += s.End - s.Start
		a.self += s.End - s.Start - covered(kids[s.ID])
	}
	names := make([]string, 0, len(by))
	for n := range by {
		names = append(names, n)
	}
	sort.Strings(names)
	fmt.Fprintf(os.Stderr, "spans (%s):\n", path)
	for _, n := range names {
		a := by[n]
		fmt.Fprintf(os.Stderr, "   %-10s n=%-6d total=%9.4fs self=%9.4fs\n", n, a.n, a.total, a.self)
	}
	return nil
}

// covered returns the length of the union of the spans' intervals, so
// children that ran in parallel are not subtracted twice.
func covered(ss []span) float64 {
	sort.Slice(ss, func(i, j int) bool { return ss[i].Start < ss[j].Start })
	var sum, end float64
	for i, s := range ss {
		if i == 0 || s.Start > end {
			sum += s.End - s.Start
			end = s.End
		} else if s.End > end {
			sum += s.End - end
			end = s.End
		}
	}
	return sum
}
