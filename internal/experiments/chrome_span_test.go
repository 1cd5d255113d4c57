package experiments

import (
	"bytes"
	"encoding/json"
	"testing"

	"github.com/rdcn-net/tdtcp/internal/trace"
)

// TestChromeSpanRoundTrip round-trips a real traced run through the Chrome
// exporter and asserts the span contract end to end: every async end ("e")
// pairs with an earlier begin ("b") of the same id, the causal chain's span
// names all survive the export, and two identical seeds export byte-identical
// Chrome JSON (stable ordering).
func TestChromeSpanRoundTrip(t *testing.T) {
	jsonlA := rotorTraceRun(t)
	jsonlB := rotorTraceRun(t)

	var chromeA, chromeB bytes.Buffer
	if err := trace.Chrome(bytes.NewReader(jsonlA), &chromeA); err != nil {
		t.Fatalf("Chrome export A: %v", err)
	}
	if err := trace.Chrome(bytes.NewReader(jsonlB), &chromeB); err != nil {
		t.Fatalf("Chrome export B: %v", err)
	}
	if !bytes.Equal(chromeA.Bytes(), chromeB.Bytes()) {
		t.Fatalf("identical seeds exported different Chrome JSON (%d vs %d bytes)",
			chromeA.Len(), chromeB.Len())
	}

	var doc struct {
		TraceEvents []struct {
			Name string  `json:"name"`
			Ph   string  `json:"ph"`
			TS   float64 `json:"ts"`
			ID   int64   `json:"id"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(chromeA.Bytes(), &doc); err != nil {
		t.Fatalf("chrome output not parseable: %v", err)
	}

	type openSpan struct {
		name string
		ts   float64
	}
	open := map[int64]openSpan{}
	names := map[string]bool{}
	pairs := 0
	seen := map[int64]bool{}
	for _, ev := range doc.TraceEvents {
		switch ev.Ph {
		case "b":
			if ev.ID == 0 {
				t.Fatalf("span begin %q without id", ev.Name)
			}
			if seen[ev.ID] {
				t.Fatalf("span id %d begun twice", ev.ID)
			}
			seen[ev.ID] = true
			open[ev.ID] = openSpan{ev.Name, ev.TS}
			names[ev.Name] = true
		case "e":
			b, ok := open[ev.ID]
			if !ok {
				t.Fatalf("span end %q id=%d without a begin", ev.Name, ev.ID)
			}
			if ev.TS < b.ts {
				t.Fatalf("span %q id=%d ends at %vus before its begin at %vus", ev.Name, ev.ID, ev.TS, b.ts)
			}
			delete(open, ev.ID)
			pairs++
		}
	}
	if pairs == 0 {
		t.Fatal("no completed spans in the export")
	}
	// The whole causal chain must be visible: flow lifetime, epoch
	// occupancy, notification delivery, and the cwnd swap it triggers.
	for _, want := range []string{"flow", "epoch", "notify", "cwnd_swap"} {
		if !names[want] {
			t.Errorf("span %q missing from Chrome export", want)
		}
	}
	// Only spans that legitimately straddle the horizon may be left open:
	// the current optical epoch and in-progress recovery episodes. A flow,
	// notify, or cwnd_swap without an End is a Begin/End discipline bug.
	for id, b := range open {
		if b.name != "epoch" && b.name != "recovery" {
			t.Errorf("span %q id=%d has no end event", b.name, id)
		}
	}
}
