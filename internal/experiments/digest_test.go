package experiments

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"testing"

	"github.com/rdcn-net/tdtcp/internal/fault"
	"github.com/rdcn-net/tdtcp/internal/trace"
)

// Golden trace digests: each row runs one seeded scenario with a CatAll
// tracer and hashes the full JSONL trace together with a result summary
// (goodput, frame ledger, fault stats, and for workload rows the FCT
// summary). The committed digests pin the data plane's observable output
// byte for byte, so any refactor of the fabric's mechanics (buffer pooling,
// delivery batching, dock and delay-line plumbing, fault streams) has to
// reproduce the exact same event stream. There is deliberately no update
// flag: a mismatch prints the new digest, and replacing a committed one is a
// reviewed behaviour change, never a refresh.

// goldenDigests maps row name to the committed SHA-256 of trace + summary.
var goldenDigests = map[string]string{
	"hybrid/seed42":                 "f986f5784d5c843b1e4834b6731307c9bdb8f906572a159607e3c4ef2da2cbc9",
	"rotor8/run/seed7":              "bc3a5ed4a4e098cc30646ce24e2f595b1c88bbcb2e6037a2027d1676969fd9f8",
	"rotor8/workload/seed7":         "a3d662bef7d9e8ffb907e5dc818b9625072ea007abccfbd20895128863efe2a6",
	"hybrid/reconfig/seed11":        "2f6407edc41e3d2da4b2c51beadb31f8ce80d1f22139ebba8cccad9f900bc5a8",
	"rotor8/reconfig/seed11":        "8ecce3ebe1684e8f0e4e02b20bf0032780f5d20d372a208c42ee0a8e39053eed",
	"hybrid/faults/seed1":           "ee09694bac3f40b656e4ae5a3a04d7a544023aeb1d9eddc89d0c9a562f7d6364",
	"hybrid/faults/seed42":          "f4778c99e763130808af990ffb8d8cb5ab90f6b2f33135be43997c19d8f28cc2",
	"rotor4/workload/load0.2/seed2": "4fb697885de3ba49ac6053607d9b361a0c862384814e421d6ab79cc1bd507fc9",
	"parity/hybrid/fault=false":     "38f66e81eabdf4d7141c0700a6e3f3fff05a07c6cc0e5752d2cf82d53ef6584f",
	"parity/hybrid/fault=true":      "2f3d7ab38c305d5b42b51c97b05bae38d7331d3d804bce1424f5c08de729280f",
	"parity/rotor-8/fault=false":    "bc3a5ed4a4e098cc30646ce24e2f595b1c88bbcb2e6037a2027d1676969fd9f8",
	"parity/rotor-8/fault=true":     "835bec583368f18a4bdd55476c785ae28876a9013b3aa290b57fdfaaab948a29",
}

// digestRow is one pinned scenario: run returns the JSONL trace bytes and
// the result summary line.
type digestRow struct {
	name string
	run  func(t *testing.T) ([]byte, string)
}

// runDigest executes cfg with a CatAll tracer and summarizes the result.
func runDigest(t *testing.T, cfg RunConfig) ([]byte, string) {
	t.Helper()
	var buf bytes.Buffer
	cfg.Tracer = trace.New(&buf, trace.CatAll)
	res, err := Run(cfg)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if err := cfg.Tracer.Flush(); err != nil {
		t.Fatalf("Flush: %v", err)
	}
	sum := fmt.Sprintf("goodput=%v ledger=%d/%d/%d fault=%+v violations=%d",
		res.GoodputGbps, res.FramesSent, res.FramesDelivered, res.FramesMisrouted,
		res.FaultStats, len(res.Violations))
	return buf.Bytes(), sum
}

// workloadDigest executes cfg with a CatAll tracer and summarizes the result.
func workloadDigest(t *testing.T, cfg WorkloadConfig) ([]byte, string) {
	t.Helper()
	var buf bytes.Buffer
	cfg.Tracer = trace.New(&buf, trace.CatAll)
	res, err := RunWorkload(cfg)
	if err != nil {
		t.Fatalf("RunWorkload: %v", err)
	}
	if err := cfg.Tracer.Flush(); err != nil {
		t.Fatalf("Flush: %v", err)
	}
	sum := fmt.Sprintf("goodput=%v ledger=%d/%d/%d flows=%d/%d offered=%d voq=%v fct=%+v",
		res.GoodputGbps, res.FramesSent, res.FramesDelivered, res.FramesMisrouted,
		res.FlowsStarted, res.FlowsCompleted, res.BytesOffered, res.MeanVOQ, res.FCT.Summaries())
	return buf.Bytes(), sum
}

// digestRows lists every pinned scenario: the hybrid and rotor golden
// traces, the reconfiguration, fault and closing-connection scenarios, and
// the four cells of the shard parity matrix.
func digestRows() []digestRow {
	faultRow := func(seed int64) digestRow {
		return digestRow{fmt.Sprintf("hybrid/faults/seed%d", seed), func(t *testing.T) ([]byte, string) {
			plan, err := fault.Parse("drop=0.02,corrupt=0.01")
			if err != nil {
				t.Fatalf("Parse: %v", err)
			}
			return runDigest(t, RunConfig{Variant: TDTCP, Flows: 2,
				WarmupWeeks: 1, MeasureWeeks: 2, Seed: seed,
				Fault: &plan, FaultSeed: 7, Invariants: true})
		}}
	}
	parityRow := func(sc Scenario, flows int, faulted bool) digestRow {
		return digestRow{fmt.Sprintf("parity/%s/fault=%v", sc.Name, faulted), func(t *testing.T) ([]byte, string) {
			cfg := RunConfig{Variant: TDTCP, Scenario: sc, Flows: flows,
				WarmupWeeks: 1, MeasureWeeks: 1, Seed: 7}
			if faulted {
				cfg.Fault = parityMatrixFault()
			}
			return runDigest(t, cfg)
		}}
	}
	return []digestRow{
		{"hybrid/seed42", func(t *testing.T) ([]byte, string) {
			return runDigest(t, RunConfig{Variant: TDTCP, Scenario: Hybrid(), Flows: 2,
				WarmupWeeks: 1, MeasureWeeks: 1, Seed: 42})
		}},
		{"rotor8/run/seed7", func(t *testing.T) ([]byte, string) {
			return runDigest(t, RunConfig{Variant: TDTCP, Scenario: MultiRack(8), Flows: 8,
				WarmupWeeks: 1, MeasureWeeks: 1, Seed: 7})
		}},
		{"rotor8/workload/seed7", func(t *testing.T) ([]byte, string) {
			return workloadDigest(t, WorkloadConfig{Variant: TDTCP, Scenario: MultiRack(8),
				WarmupWeeks: 1, MeasureWeeks: 1, Seed: 7})
		}},
		{"hybrid/reconfig/seed11", func(t *testing.T) ([]byte, string) {
			return runDigest(t, RunConfig{Variant: TDTCP, Scenario: Hybrid(), Flows: 4,
				WarmupWeeks: 1, MeasureWeeks: 2, Seed: 11})
		}},
		{"rotor8/reconfig/seed11", func(t *testing.T) ([]byte, string) {
			return runDigest(t, RunConfig{Variant: TDTCP, Scenario: MultiRack(8), Flows: 4,
				WarmupWeeks: 1, MeasureWeeks: 2, Seed: 11})
		}},
		faultRow(1),
		faultRow(42),
		{"rotor4/workload/load0.2/seed2", func(t *testing.T) ([]byte, string) {
			return workloadDigest(t, WorkloadConfig{Variant: TDTCP, Scenario: MultiRack(4), Load: 0.2,
				WarmupWeeks: 1, MeasureWeeks: 2, Seed: 2})
		}},
		parityRow(Hybrid(), 4, false),
		parityRow(Hybrid(), 4, true),
		parityRow(MultiRack(8), 8, false),
		parityRow(MultiRack(8), 8, true),
	}
}

// TestGoldenDigests checks every row against its committed digest.
func TestGoldenDigests(t *testing.T) {
	for _, row := range digestRows() {
		t.Run(row.name, func(t *testing.T) {
			tr, sum := row.run(t)
			if len(tr) == 0 {
				t.Fatal("traced run produced no events")
			}
			h := sha256.New()
			h.Write(tr)
			h.Write([]byte("\n--\n" + sum))
			got := hex.EncodeToString(h.Sum(nil))
			want, ok := goldenDigests[row.name]
			if !ok {
				t.Fatalf("no committed digest; this run hashes to %s (%d trace bytes; %s)", got, len(tr), sum)
			}
			if got != want {
				t.Fatalf("digest %s != committed %s (%d trace bytes; %s)", got, want, len(tr), sum)
			}
		})
	}
}
