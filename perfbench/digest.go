package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io/fs"
	"math"
	"os"
	"sort"
	"strings"

	"github.com/rdcn-net/tdtcp/internal/experiments"
)

// The output check: every simulation's result is hashed (goodput, the
// registry dump with its counters and histogram summaries, FCT summaries and
// the frame ledger). A run's digest is the hash of its first unit's
// per-operation hashes; the committed table pins it per (workload, seed) at
// the standard sizes, so a performance change can show that simulated
// statistics did not move.

func hashHex(parts ...string) string {
	h := sha256.New()
	for _, p := range parts {
		h.Write([]byte(p))
		h.Write([]byte{0})
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}

// digestOf combines per-operation digests in order.
func digestOf(ops []string) string { return hashHex(ops...) }

func floatBits(f float64) string { return fmt.Sprintf("%016x", math.Float64bits(f)) }

// runDigest hashes one experiments.Run result with its registry dump.
func runDigest(r *experiments.Result, reg []byte) string {
	return hashHex(string(r.Variant), fmt.Sprint(r.Cfg.Seed), floatBits(r.GoodputGbps),
		fmt.Sprint(r.FramesSent, r.FramesDelivered, r.FramesMisrouted), string(reg))
}

// workloadDigest hashes one experiments.RunWorkload result with its
// registry dump.
func workloadDigest(r *experiments.WorkloadResult, reg []byte) string {
	return hashHex(string(r.Variant), fmt.Sprint(r.Cfg.Seed), floatBits(r.GoodputGbps), floatBits(r.MeanVOQ),
		fmt.Sprint(r.FlowsStarted, r.FlowsCompleted, r.BytesOffered),
		fmt.Sprintf("%+v", r.FCT.Summaries()),
		fmt.Sprint(r.FramesSent, r.FramesDelivered, r.FramesMisrouted), string(reg))
}

func digestKey(workload string, seed int64) string { return fmt.Sprintf("%s/%d", workload, seed) }

// loadDigests reads the committed table; a missing file is an empty table.
func loadDigests(path string) (map[string]string, error) {
	m := map[string]string{}
	b, err := os.ReadFile(path)
	if errors.Is(err, fs.ErrNotExist) {
		return m, nil
	}
	if err != nil {
		return nil, err
	}
	if err := json.Unmarshal(b, &m); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return m, nil
}

// saveDigest records one entry and rewrites the table with sorted keys.
func saveDigest(path string, m map[string]string, key, digest string) error {
	m[key] = digest
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var b strings.Builder
	b.WriteString("{\n")
	for i, k := range keys {
		sep := ","
		if i == len(keys)-1 {
			sep = ""
		}
		fmt.Fprintf(&b, "  %q: %q%s\n", k, m[k], sep)
	}
	b.WriteString("}\n")
	return os.WriteFile(path, []byte(b.String()), 0o644)
}
