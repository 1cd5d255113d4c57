package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"time"

	"github.com/rdcn-net/tdtcp/internal/serve"
)

// The tdserve-jobs workload: an in-process tdserve (serve.New behind
// serve.Handler, as cmd/tdserve wires it, default 2 workers) on a loopback
// listener. A batch of ServeJobs jobs arrives open-loop at ServeRate jobs/s.
// One client connection submits in schedule order; a second collects
// results with long polls in submission order, so the client never holds
// more than two connections. Each job is timed from its scheduled send to
// its result. Every batch starts a fresh server, so every batch sees the
// same cold cache and the same inputs.

const (
	serveRepeatShare = 0.25
	serveMaxFlows    = 256
)

// serveStats are tdserve's own /metrics readings for one batch, plus the
// generator's lateness.
type serveStats struct {
	queueWaitP90, runP50 time.Duration
	cacheHitFrac         float64
	rejectedFrac         float64
	lags                 []time.Duration
}

// serveMix generates the batch's job specs from the seed. The composition
// is fixed so that every seed asks for the same amount of work: a quarter
// of the jobs repeat an earlier spec (cache hits or single-flight joins);
// the rest cycle through 11 small runs (hybrid, 2 or 4 flows, 1+4 weeks),
// 8 medium runs (16 flows, 1+8 weeks) and 1 workload run (4-rack rotor,
// 1+2 weeks), with seeded simulation seeds, in a seeded order. The medium
// runs put job_p90_ms on a plateau of similar-cost jobs, and jobs of a few
// tens of milliseconds keep one scheduler or host time slice from
// dominating a job's latency.
func serveMix(seed int64, n int) []serve.Spec {
	rng := rand.New(rand.NewSource(seed))
	var shapes []serve.Spec
	variants := []string{"tdtcp", "cubic", "dctcp", "reno"}
	for i := 0; i < 11; i++ { // small runs
		shapes = append(shapes, serve.Spec{Kind: serve.KindRun, Variant: variants[i%4], Flows: 2 + 2*(i/4%2),
			WarmupWeeks: 1, MeasureWeeks: 4})
	}
	for i := 0; i < 8; i++ { // medium runs
		shapes = append(shapes, serve.Spec{Kind: serve.KindRun, Variant: variants[i%4], Flows: 16,
			WarmupWeeks: 1, MeasureWeeks: 8})
	}
	shapes = append(shapes, serve.Spec{Kind: serve.KindWorkload, Variant: "tdtcp", Racks: 4, Hosts: 2, Load: 0.3,
		MaxFlows: serveMaxFlows, WarmupWeeks: 1, MeasureWeeks: 2})
	fresh := n - int(float64(n)*serveRepeatShare)
	specs := make([]serve.Spec, 0, n)
	for i := 0; i < fresh; i++ {
		s := shapes[i%len(shapes)]
		s.Seed = rng.Int63n(1_000_000) + 1
		specs = append(specs, s)
	}
	rng.Shuffle(len(specs), func(i, j int) { specs[i], specs[j] = specs[j], specs[i] })
	for len(specs) < n {
		p := 1 + rng.Intn(len(specs))
		specs = append(specs[:p], append([]serve.Spec{specs[rng.Intn(p)]}, specs[p:]...)...)
	}
	return specs
}

// server is one in-process tdserve on loopback.
type server struct {
	s    *serve.Server
	hs   *http.Server
	url  string
	done chan error
}

// startServer starts tdserve and returns once /readyz answers 200 through
// client; the time that takes is one set-up sample.
func startServer(client *http.Client) (*server, time.Duration, error) {
	t0 := time.Now()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, 0, err
	}
	sv := &server{s: serve.New(serve.Config{}), url: "http://" + ln.Addr().String(), done: make(chan error, 1)}
	sv.hs = &http.Server{Handler: serve.Handler(sv.s)}
	go func() { sv.done <- sv.hs.Serve(ln) }()
	for {
		resp, err := client.Get(sv.url + "/readyz")
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return sv, time.Since(t0), nil
			}
		}
		if time.Since(t0) > 10*time.Second {
			sv.stop()
			return nil, 0, fmt.Errorf("tdserve not ready after 10s: %v", err)
		}
	}
}

// stop drains the service and closes the listener, waiting for both.
func (sv *server) stop() error {
	err := sv.s.Shutdown(30 * time.Second)
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if e := sv.hs.Shutdown(ctx); err == nil {
		err = e
	}
	if e := <-sv.done; err == nil && e != http.ErrServerClosed {
		err = e
	}
	return err
}

// jobView is the part of tdserve's job JSON the benchmark reads.
type jobView struct {
	ID      string          `json:"id"`
	Key     string          `json:"key"`
	State   string          `json:"state"`
	Error   string          `json:"error"`
	Outcome json.RawMessage `json:"outcome"`
}

type submitReply struct {
	Disposition string  `json:"disposition"`
	Job         jobView `json:"job"`
	Error       string  `json:"error"`
}

// pending is a submitted job on its way to the collector.
type pending struct {
	idx   int
	sched time.Time
	reply submitReply
	// done is set when the submit reply already carried the result (a
	// cache hit); err when the submit failed.
	done time.Time
	err  error
}

// serveUnit runs one batch against a fresh server.
func serveUnit(b *bench, _ int) *unitStats {
	specs := serveMix(b.seed, b.sz.ServeJobs)
	bodies := make([][]byte, len(specs))
	for i := range specs {
		bodies[i], _ = json.Marshal(&specs[i]) // plain scalars: cannot fail
	}
	// Open loop: arrivals at a fixed rate, whatever the server does.
	offs := make([]time.Duration, len(specs))
	for i := range offs {
		offs[i] = time.Duration(float64(i) / b.sz.ServeRate * float64(time.Second))
	}

	submit, collect := newClient(), newClient()
	defer submit.CloseIdleConnections()
	defer collect.CloseIdleConnections()
	u := &unitStats{}
	for i := 0; i < b.sz.ServeStarts; i++ {
		sv, d, err := startServer(submit)
		if err != nil {
			u.fail(fmt.Sprintf("tdserve start: %v", err))
			continue
		}
		u.setups = append(u.setups, d)
		if err := sv.stop(); err != nil {
			u.fail(fmt.Sprintf("tdserve stop: %v", err))
			continue
		}
		u.ops = append(u.ops, "start")
		submit.CloseIdleConnections()
	}
	t0 := time.Now()
	sv, d, err := startServer(submit)
	if err != nil {
		for range specs {
			u.fail(fmt.Sprintf("tdserve start: %v", err))
		}
		return u
	}
	u.setups = append(u.setups, d)
	unit := b.spans.begin("unit", 0, t0)
	defer func() { b.spans.end(unit, time.Now()) }()
	b.spans.add("setup", unit, t0, t0.Add(d))

	start := time.Now().Add(5 * time.Millisecond)
	queue := make(chan pending, len(specs)) // sized to the number of sends
	go func() {
		defer close(queue)
		for i, body := range bodies {
			sched := start.Add(offs[i])
			time.Sleep(time.Until(sched))
			u.serve.lags = append(u.serve.lags, time.Since(sched))
			p := pending{idx: i, sched: sched}
			p.err = postJSON(submit, sv.url+"/jobs", body, &p.reply)
			if p.err == nil && p.reply.Disposition == serve.DispCacheHit {
				p.done = time.Now()
			}
			queue <- p
		}
	}()
	results := make([]jobView, len(specs))
	finished := make([]time.Time, len(specs))
	errs := make([]error, len(specs))
	for p := range queue {
		switch {
		case p.err != nil:
			// A refused job counts as failed; its latency runs to the refusal.
			errs[p.idx], finished[p.idx] = p.err, time.Now()
		case !p.done.IsZero():
			results[p.idx], finished[p.idx] = p.reply.Job, p.done
		default:
			errs[p.idx] = getJSON(collect, sv.url+"/jobs/"+p.reply.Job.ID+"/result?wait=60s", &results[p.idx])
			finished[p.idx] = time.Now()
		}
		b.spans.add("job", unit, p.sched, finished[p.idx])
	}
	u.wall = time.Since(start)
	u.serve.readMetrics(collect, sv.url)
	stopErr := sv.stop()

	outcomes := map[string]string{}
	for i, v := range results {
		u.jobs = append(u.jobs, finished[i].Sub(start.Add(offs[i])))
		what := fmt.Sprintf("tdserve-jobs seed %d job %d", b.seed, i)
		if errs[i] != nil {
			u.fail(fmt.Sprintf("%s: %v", what, errs[i]))
			continue
		}
		if v.State != string(serve.StateDone) {
			u.fail(fmt.Sprintf("%s: state %s: %s", what, v.State, v.Error))
			continue
		}
		var out bytes.Buffer
		if err := json.Compact(&out, v.Outcome); err != nil {
			u.fail(fmt.Sprintf("%s: outcome: %v", what, err))
			continue
		}
		var o serve.Outcome
		if err := json.Unmarshal(out.Bytes(), &o); err != nil {
			u.fail(fmt.Sprintf("%s: outcome: %v", what, err))
			continue
		}
		if o.Kind == serve.KindWorkload && o.FlowsStarted >= specs[i].MaxFlows {
			u.fail(fmt.Sprintf("%s: arrivals truncated at max_flows %d", what, o.FlowsStarted))
			continue
		}
		if _, seen := outcomes[v.Key]; !seen {
			outcomes[v.Key] = out.String()
			u.counts.add(regCounts(o.Metrics))
		}
		u.ops = append(u.ops, hashHex(v.Key, out.String()))
	}
	if stopErr != nil {
		u.fail(fmt.Sprintf("tdserve stop: %v", stopErr))
	}
	return u
}

// readMetrics fills the serve.* readings from tdserve's /metrics.
func (st *serveStats) readMetrics(c *http.Client, url string) {
	var m struct {
		Counters   map[string]float64 `json:"counters"`
		Histograms map[string]struct {
			P50 int64 `json:"p50"`
			P90 int64 `json:"p90"`
		} `json:"histograms"`
	}
	if getJSON(c, url+"/metrics", &m) != nil {
		return
	}
	sub := max(m.Counters["serve.submitted"], 1)
	st.cacheHitFrac = m.Counters["serve.cache_hits"] / sub
	st.rejectedFrac = (m.Counters["serve.rejected_queue_full"] + m.Counters["serve.rejected_invalid"] +
		m.Counters["serve.rejected_draining"]) / sub
	st.queueWaitP90 = time.Duration(m.Histograms["serve.queue_wait_ns"].P90)
	st.runP50 = time.Duration(m.Histograms["serve.run_ns"].P50)
}

// newClient is a client that holds at most one connection.
func newClient() *http.Client {
	return &http.Client{Transport: &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1, DisableCompression: true}}
}

func postJSON(c *http.Client, url string, body []byte, v any) error {
	resp, err := c.Post(url, "application/json", bytes.NewReader(body))
	if err != nil {
		return err
	}
	return decodeReply(resp, v)
}

func getJSON(c *http.Client, url string, v any) error {
	resp, err := c.Get(url)
	if err != nil {
		return err
	}
	return decodeReply(resp, v)
}

// decodeReply decodes a 2xx reply into v and turns anything else into an
// error naming the status.
func decodeReply(resp *http.Response, v any) error {
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		return err
	}
	if resp.StatusCode/100 != 2 {
		return fmt.Errorf("HTTP %d: %s", resp.StatusCode, bytes.TrimSpace(b))
	}
	return json.Unmarshal(b, v)
}
