package main

import (
	"bufio"
	"bytes"
	"fmt"
	"os"
	"os/exec"
	"strings"
	"time"
)

// Profile attribution. The traced run CPU-profiles its own units and shells
// out to `go tool pprof -traces`, the same shell-out-to-the-toolchain
// approach internal/lint/escape.go takes, so no profile-parsing dependency
// is added. Every sample is charged to the module of its leaf frame (self
// share), to the phase of the experiments call it sits under, and to the
// mechanisms whose frames appear in its stack.

const modPrefix = "github.com/rdcn-net/tdtcp/internal/"

// modules are the attribution buckets; their self shares sum to 1.
// "other" holds the remaining repo packages (fault, invariant, obs) and the
// benchmark itself.
var modules = []string{"sim", "netem", "rdcn", "tcp", "core", "cc", "mptcp", "packet", "trace", "stats",
	"workload", "experiments", "serve", "runtime", "stdlib", "other"}

// Phases of an experiments.Run / RunWorkload call.
const (
	phaseSetup = iota
	phaseSimulate
	phasePost
	phaseNone
)

type attribution struct {
	total time.Duration
	self  map[string]time.Duration
	phase [phaseNone]time.Duration
	// Time under rdcn.(*Network).transition, tcp.(*Conn).Notify, the
	// garbage collector, and any simulation call (or engine worker).
	transition, notify, gc, inSim time.Duration
}

// attribute runs pprof on the profile and attributes its samples.
func attribute(path string) (*attribution, error) {
	cmd := exec.Command("go", "tool", "pprof", "-traces", path)
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, fmt.Errorf("go tool pprof: %v: %s", err, bytes.TrimSpace(stderr.Bytes()))
	}
	return parseTraces(out)
}

// parseTraces reads `pprof -traces` text: samples separated by dashed
// lines, each a value and leaf frame followed by caller frames.
func parseTraces(out []byte) (*attribution, error) {
	a := &attribution{self: map[string]time.Duration{}}
	var val time.Duration
	var stack []string
	flush := func() {
		if len(stack) > 0 {
			a.add(val, stack)
		}
		stack = stack[:0]
	}
	sc := bufio.NewScanner(bytes.NewReader(out))
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		if strings.HasPrefix(line, "-----------+") {
			flush()
			continue
		}
		f := strings.Fields(line)
		switch {
		case len(f) == 0 || strings.HasSuffix(f[0], ":"):
			// Header lines and sample labels.
		case len(stack) == 0:
			d, err := time.ParseDuration(f[0])
			if err != nil || len(f) < 2 {
				continue
			}
			val, stack = d, append(stack, f[1])
		default:
			stack = append(stack, f[0])
		}
	}
	flush()
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return a, nil
}

// add attributes one sample; stack[0] is the leaf.
func (a *attribution) add(v time.Duration, stack []string) {
	for i, fn := range stack {
		stack[i] = strings.TrimPrefix(fn, modPrefix)
	}
	a.total += v
	a.self[moduleOf(stack[0])] += v
	if p := phaseOf(stack); p != phaseNone {
		a.phase[p] += v
		a.inSim += v
	}
	var tr, no, gc bool
	for _, fn := range stack {
		tr = tr || fn == "rdcn.(*Network).transition"
		no = no || fn == "tcp.(*Conn).Notify"
		gc = gc || strings.HasPrefix(fn, "runtime.gc") || strings.HasPrefix(fn, "runtime.bgsweep") ||
			strings.HasPrefix(fn, "runtime.bgscavenge") || fn == "runtime.GC" || strings.HasPrefix(fn, "runtime.markroot") ||
			strings.HasPrefix(fn, "runtime.scanobject") || strings.HasPrefix(fn, "runtime.sweepone")
	}
	if tr {
		a.transition += v
	}
	if no {
		a.notify += v
	}
	if gc {
		a.gc += v
	}
}

// moduleOf maps a (module-prefix-trimmed) function name to its bucket.
func moduleOf(fn string) string {
	if strings.HasPrefix(fn, "runtime.") || strings.HasPrefix(fn, "internal/runtime/") {
		return "runtime"
	}
	if i := strings.IndexByte(fn, '.'); i > 0 && !strings.Contains(fn[:i], "/") {
		for _, m := range modules {
			if fn[:i] == m && m != "runtime" {
				return m
			}
		}
	}
	if strings.HasPrefix(fn, "main.") || strings.HasPrefix(fn, "github.com/") || isRepoPackage(fn) {
		return "other"
	}
	return "stdlib"
}

// isRepoPackage reports repo packages outside the named modules (their
// names were trimmed of the module prefix, so they look unqualified).
func isRepoPackage(fn string) bool {
	for _, p := range []string{"fault.", "invariant.", "obs."} {
		if strings.HasPrefix(fn, p) {
			return true
		}
	}
	return false
}

// phaseOf places a sample in the phase of the experiments call it sits
// under: the event loop (ShardedLoop.RunUntil or an engine worker),
// post-run reference and stats code (called directly by Run/RunWorkload
// after the loop), or set-up (everything else under the call).
func phaseOf(stack []string) int {
	run := -1
	for i, fn := range stack {
		if strings.HasPrefix(fn, "sim.(*ShardedLoop).RunUntil") || strings.HasPrefix(fn, "sim.(*ShardedLoop).startWorkers") {
			return phaseSimulate
		}
		if fn == "experiments.Run" || fn == "experiments.RunWorkload" {
			run = i
		}
	}
	switch {
	case run < 0:
		return phaseNone
	case run == 0:
		return phaseSetup
	}
	callee := stack[run-1]
	switch {
	case strings.HasPrefix(callee, "workload.") && callee != "workload.MeanInterarrival",
		strings.HasPrefix(callee, "stats.") && callee != "stats.NewSampler",
		callee == "experiments.populateMetrics", callee == "experiments.addStats",
		callee == "rdcn.(*Network).CheckConservation", callee == "rdcn.(*Network).FrameLedger":
		return phasePost
	}
	return phaseSetup
}

// report prints the attribution table to standard error.
func (a *attribution) report(name string, overhead float64) {
	fmt.Fprintf(os.Stderr, "profile attribution, %s: %.2fs CPU sampled, profile overhead %+.1f%% of the untraced cost\n",
		name, a.total.Seconds(), 100*overhead)
	var sum float64
	for _, m := range modules {
		f := a.frac(a.self[m])
		sum += f
		fmt.Fprintf(os.Stderr, "   self %-12s %6.2f%%\n", m, 100*f)
	}
	fmt.Fprintf(os.Stderr, "   self total        %6.2f%%\n", 100*sum)
	for i, p := range []string{"setup", "simulate", "post"} {
		fmt.Fprintf(os.Stderr, "   phase %-11s %6.2f%%\n", p, 100*a.frac(a.phase[i]))
	}
}

// frac is d's share of the sampled CPU time (0 for an empty profile).
func (a *attribution) frac(d time.Duration) float64 { return ratio(d.Seconds(), a.total.Seconds()) }
