package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"sync"
	"time"

	"loopfrog/internal/fabric"
	"loopfrog/internal/serve"
	"loopfrog/internal/sim"
	"loopfrog/internal/tune"
)

// retainJobs bounds each server's finished-job registry. A finished job
// keeps the last machine it observed, with every instruction that machine
// dispatched (about 40 MB for a source job), so the default of 1024 would
// hold gigabytes by the end of a run. The clients never look a job up again
// after its synchronous answer.
const retainJobs = 8

// httpServer is one loopback listener the benchmark owns.
type httpServer struct {
	srv  *http.Server
	done chan struct{}
}

func listen(h http.Handler) (*httpServer, string, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, "", fmt.Errorf("listen: %w", err)
	}
	hs := &httpServer{srv: &http.Server{Handler: h}, done: make(chan struct{})}
	go func() {
		defer close(hs.done)
		hs.srv.Serve(ln) // returns http.ErrServerClosed once close runs
	}()
	return hs, "http://" + ln.Addr().String(), nil
}

// close stops the listener, waits for in-flight requests and for the serving
// goroutine to exit.
func (h *httpServer) close() {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	_ = h.srv.Shutdown(ctx) // a drain that times out still closes the listener
	<-h.done
}

// jobHeader carries the client's job name to the front server's handler
// wrapper, which would otherwise have to decode the body a second time.
const jobHeader = "X-Perfbench-Job"

// handled is one job request a server the benchmark owns answered, timed by
// the benchmark's wrapper around that server's handler: when the handler
// returned and how long it ran. The job views report their phases in whole
// milliseconds, too coarse for a sub-millisecond cache hit.
type handled struct {
	end time.Time
	dur time.Duration
}

// topology is the serving side of a serve or fabric run: the front server the
// clients talk to and, for fabric, the coordinator and its workers.
type topology struct {
	url     string
	front   *serve.Server
	coord   *fabric.Coordinator
	workers []*serve.Server
	servers []*httpServer // front last, so it drains before its workers go
	client  *http.Client

	mu        sync.Mutex
	frontTime map[string]time.Duration // job name -> front handler time
	calls     map[string][]handled     // job name -> worker-side calls
	spans     map[string]int64         // job name -> client span, parent of worker spans
}

func (t *topology) close() {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	_ = t.front.Shutdown(ctx) // an expired drain cancels what is left
	t.servers[len(t.servers)-1].close()
	if t.coord != nil {
		t.coord.Close()
	}
	for i, w := range t.workers {
		_ = w.Shutdown(ctx)
		t.servers[i].close()
	}
	t.client.CloseIdleConnections()
}

// wrapFront times the front server's handler on every job request the
// clients send.
func (t *topology) wrapFront(h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		start := time.Now()
		h.ServeHTTP(w, req)
		d := time.Since(start)
		if name := req.Header.Get(jobHeader); name != "" {
			t.mu.Lock()
			t.frontTime[name] = d
			t.mu.Unlock()
		}
	})
}

// wrapWorker times every job request a worker serves, keyed by the job name
// the client set, which the coordinator forwards in the job spec.
func (t *topology) wrapWorker(r *run, lane int, id string, h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		if req.Method != http.MethodPost || req.URL.Path != "/v1/jobs" {
			h.ServeHTTP(w, req)
			return
		}
		body, err := io.ReadAll(req.Body)
		if err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		req.Body = io.NopCloser(bytes.NewReader(body))
		var spec serve.JobSpec
		_ = json.Unmarshal(body, &spec) // the worker itself rejects a bad body
		start := time.Now()
		h.ServeHTTP(w, req)
		end := time.Now()
		t.mu.Lock()
		t.calls[spec.Name] = append(t.calls[spec.Name], handled{end: end, dur: end.Sub(start)})
		parent := t.spans[spec.Name]
		t.mu.Unlock()
		r.tr.record(lane, "serve", id+" POST /v1/jobs", spec.Name, parent, start, end)
	})
}

func setupTopology(r *run, useFabric bool) (*topology, error) {
	t := &topology{
		client:    &http.Client{Timeout: 2 * time.Minute, Transport: &http.Transport{MaxIdleConnsPerHost: clients}},
		frontTime: map[string]time.Duration{},
		calls:     map[string][]handled{},
		spans:     map[string]int64{},
	}
	cfg := serve.Config{Workers: clients, RetainJobs: retainJobs}
	if useFabric {
		// lfservd -coordinator defaults (its join log discarded: set-up runs
		// many times), unbounded caches, and two workers with the runner and
		// harness defaults of lfservd -worker, joined without a runner count
		// as lfservd does by default.
		sp := r.tr.start(0, "fabric", "fabric.NewCoordinator", "setup", 0)
		t.coord = fabric.NewCoordinator(fabric.Config{Logf: func(string, ...any) {}})
		sp.end()
		for i := 0; i < clients; i++ {
			id := fmt.Sprintf("w%d", i+1)
			sp := r.tr.start(0, "serve", "serve.New", id, 0)
			w := serve.New(serve.Config{CacheCapacity: -1, RetainJobs: retainJobs})
			hs, url, err := listen(t.wrapWorker(r, clients+i, id, w.Handler()))
			sp.end()
			if err != nil {
				return nil, err
			}
			t.workers = append(t.workers, w)
			t.servers = append(t.servers, hs)
			sp = r.tr.start(0, "fabric", "fabric.AddWorker", id, 0)
			err = t.coord.AddWorker(fabric.JoinInfo{ID: id, URL: url})
			sp.end()
			if err != nil {
				return nil, err
			}
		}
		cfg = serve.Config{Remote: t.coord, CacheCapacity: -1, RetainJobs: retainJobs}
	}
	sp := r.tr.start(0, "serve", "serve.New", "front", 0)
	t.front = serve.New(cfg)
	var h http.Handler = t.front.Handler()
	if t.coord != nil {
		h = t.coord.Mount(h)
	}
	hs, url, err := listen(t.wrapFront(h))
	sp.end()
	if err != nil {
		return nil, err
	}
	t.servers = append(t.servers, hs)
	t.url = url
	sp = r.tr.start(0, "serve", "GET /readyz", "setup", 0)
	defer sp.end()
	resp, err := t.client.Get(url + "/readyz")
	if err != nil {
		return nil, fmt.Errorf("readyz: %w", err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("readyz: HTTP %d", resp.StatusCode)
	}
	return t, nil
}

// jobView is the part of a serve job view the benchmark reads.
type jobView struct {
	Status   string           `json:"status"`
	Error    string           `json:"error"`
	Result   *serve.JobResult `json:"result"`
	QueuedMS int64            `json:"queued_ms"`
	RunMS    int64            `json:"run_ms"`
}

// served is one completed client request.
type served struct {
	item          serveItem
	name          string
	miss          bool // the first submission of a source job
	lat           time.Duration
	handler       time.Duration // the front server's handler time
	queued, runMS int64         // from the job view
}

// runServe drives the front server in a closed loop: each of two clients
// sends its next job from the seeded list when the previous one returns,
// until the run's time is up. The whole run is one measurement window: its
// job mix is only steady over the whole list.
func runServe(r *run, useFabric bool) error {
	items, err := serveList(r.seed, useFabric)
	if err != nil {
		return err
	}
	t, err := repeatSetup(r, func() (*topology, error) { return setupTopology(r, useFabric) }, (*topology).close)
	if err != nil {
		return err
	}
	defer t.close()

	// Warm up: every repeated key is sent once before the clock starts, so
	// the measured loop sees hits where a long-running server would.
	var warm []serveItem
	seen := map[string]bool{}
	for _, it := range items {
		if it.Kind != kindSource && !seen[it.Key] {
			seen[it.Key] = true
			warm = append(warm, it)
		}
	}
	// A source job misses the run-cache the first time it is sent.
	miss := make([]bool, len(items))
	sent := map[string]bool{}
	for i, it := range items {
		key := fmt.Sprint(it.Key, it.Spec.MaxCycles)
		miss[i] = it.Kind == kindSource && !sent[key]
		sent[key] = true
	}

	sp := r.tr.start(0, benchLayer, "warm-up", "", 0)
	closedLoop(len(warm), time.Time{}, func(lane, i int) {
		_, _, err := t.post(r, lane, -1-i, warm[i])
		r.check(err)
	})
	sp.end()

	frontBefore := t.front.Harness().Stats()
	var fabBefore fabric.Stats
	var workersBefore []sim.HarnessStats
	if t.coord != nil {
		fabBefore = t.coord.Stats()
		for _, w := range t.workers {
			workersBefore = append(workersBefore, w.Harness().Stats())
		}
	}
	var (
		mu  sync.Mutex
		out []served
	)
	resetPeakRSS()
	start := time.Now()
	closedLoop(len(items), start.Add(r.dur), func(lane, i int) {
		s, insts, err := t.post(r, lane, i, items[i])
		s.miss = miss[i]
		r.done(0, s.lat, insts, err)
		mu.Lock()
		out = append(out, s)
		mu.Unlock()
	})
	r.setWall(0, time.Since(start))
	r.markPeak(0)
	r.info["jobs_listed"] = len(items)

	// Queue wait and run come from the job views in whole milliseconds, so
	// they are reported over the misses only, which run for hundreds of
	// milliseconds; a hit reads 0 for both.
	var queued, runMS, overhead []float64
	t.mu.Lock()
	for i := range out {
		s := &out[i]
		s.handler = t.frontTime[s.name]
		overhead = append(overhead, ms(s.lat-s.handler))
		if s.miss {
			queued = append(queued, float64(s.queued))
			runMS = append(runMS, float64(s.runMS))
		}
	}
	t.mu.Unlock()
	r.layer["serve.queue_wait_ms"] = mean(queued)
	r.layer["serve.run_ms"] = mean(runMS)
	r.layer["serve.overhead_ms"] = mean(overhead)
	r.layer["sim.cache_hit_frac"] = hitFrac(frontBefore, t.front.Harness().Stats())
	if t.coord != nil {
		fabricLayer(r, t, fabBefore, workersBefore, out)
	}
	if r.tr == nil {
		return nil
	}
	if !useFabric {
		probeCacheHits(r, t, out)
	}
	probeSourceCompiles(r, out)
	compileLintTimes(r)
	return nil
}

// post sends one job and checks its answer against golden.json.
func (t *topology) post(r *run, lane, i int, it serveItem) (served, float64, error) {
	spec := it.Spec
	spec.Name = fmt.Sprintf("j%05d", i) // warm-up jobs get negative numbers
	s := served{item: it, name: spec.Name}
	body, err := json.Marshal(spec)
	if err != nil {
		return s, 0, err
	}
	sp := r.tr.start(lane, "serve", "POST /v1/jobs", spec.Name, 0)
	if sp != nil {
		t.mu.Lock()
		t.spans[spec.Name] = sp.id()
		t.mu.Unlock()
	}
	t0 := time.Now()
	var view jobView
	req, err := http.NewRequest(http.MethodPost, t.url+"/v1/jobs", bytes.NewReader(body))
	if err != nil {
		return s, 0, err
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set(jobHeader, spec.Name)
	resp, err := t.client.Do(req)
	status := 0
	if err == nil {
		status = resp.StatusCode
		err = json.NewDecoder(resp.Body).Decode(&view)
		resp.Body.Close()
	}
	t1 := time.Now()
	sp.end()
	s.lat, s.queued, s.runMS = t1.Sub(t0), view.QueuedMS, view.RunMS
	if err != nil {
		return s, 0, fmt.Errorf("%s %s: %w", spec.Name, it.Key, err)
	}
	if sp != nil {
		// The view reports the server-side phases as durations; they end
		// when the response was written, just before it arrived.
		run := time.Duration(view.RunMS) * time.Millisecond
		wait := time.Duration(view.QueuedMS) * time.Millisecond
		layer := "sim"
		if t.coord != nil {
			layer = "fabric"
		}
		r.tr.record(lane, "serve", "serve queue wait", spec.Name, sp.id(), t1.Add(-run-wait), t1.Add(-run))
		r.tr.record(lane, layer, layer+" run", spec.Name, sp.id(), t1.Add(-run), t1)
	}
	insts, err := checkServed(r, it, status, &view)
	if err != nil {
		return s, 0, fmt.Errorf("%s: %w", spec.Name, err)
	}
	return s, insts, nil
}

// checkServed requires a 200 "done" answer carrying the golden cycles of the
// item's key, and returns the simulated instructions the result stands for.
func checkServed(r *run, it serveItem, status int, v *jobView) (float64, error) {
	if status != http.StatusOK || v.Status != serve.StatusDone || v.Result == nil {
		return 0, fmt.Errorf("%s: HTTP %d status %q error %q", it.Key, status, v.Status, v.Error)
	}
	g, err := r.gold.get(it.Key)
	if err != nil {
		return 0, err
	}
	res := v.Result
	switch it.Kind {
	case kindSource:
		if float64(res.Cycles) != g.LF {
			return 0, fmt.Errorf("%s: %d cycles, golden %.0f", it.Key, res.Cycles, g.LF)
		}
		return float64(res.ArchInsts), nil
	case kindSampled:
		full, err := r.gold.get("full/" + it.Spec.Bench)
		if err != nil {
			return 0, err
		}
		if e := errPct(float64(res.LoopFrogCycles), full.LF); e > sampledBudget {
			return 0, fmt.Errorf("%s: LoopFrog estimate off by %.2f%%, budget %.0f%%", it.Key, e, sampledBudget)
		}
		if e := errPct(float64(res.BaselineCycles), full.Base); e > sampledBudget {
			return 0, fmt.Errorf("%s: baseline estimate off by %.2f%%, budget %.0f%%", it.Key, e, sampledBudget)
		}
	}
	if float64(res.BaselineCycles) != g.Base || float64(res.LoopFrogCycles) != g.LF {
		return 0, fmt.Errorf("%s: %d/%d cycles, golden %.0f/%.0f",
			it.Key, res.BaselineCycles, res.LoopFrogCycles, g.Base, g.LF)
	}
	return 2 * float64(res.ArchInsts), nil
}

// hitFrac is the share of run-cache lookups between two snapshots served
// from the cache or by joining an identical in-flight run.
func hitFrac(from, to sim.HarnessStats) float64 {
	hits := (to.CacheHits - from.CacheHits) + (to.CacheFlightJoins - from.CacheFlightJoins)
	all := hits + to.CacheMisses - from.CacheMisses
	if all == 0 {
		return 0
	}
	return float64(hits) / float64(all)
}

// fabricLayer reports the coordinator's counters over the measured loop, the
// workers' combined cache hit share, and the relay time: the front server's
// handler time minus the handler time of the worker dispatch that answered
// first.
func fabricLayer(r *run, t *topology, before fabric.Stats, workersBefore []sim.HarnessStats, out []served) {
	st := t.coord.Stats()
	r.layer["fabric.dispatches"] = float64(st.Dispatches - before.Dispatches)
	r.layer["fabric.steals"] = float64(st.Steals - before.Steals)
	r.layer["fabric.hedges"] = float64(st.Hedges - before.Hedges)
	r.layer["fabric.hedges_wasted"] = float64(st.HedgesWasted - before.HedgesWasted)
	r.layer["fabric.retries"] = float64(st.Retries - before.Retries)
	r.info["fabric_degradations"] = st.Degradations - before.Degradations

	var from, to sim.HarnessStats
	for i, w := range t.workers {
		now := w.Harness().Stats()
		from.CacheHits += workersBefore[i].CacheHits
		from.CacheFlightJoins += workersBefore[i].CacheFlightJoins
		from.CacheMisses += workersBefore[i].CacheMisses
		to.CacheHits += now.CacheHits
		to.CacheFlightJoins += now.CacheFlightJoins
		to.CacheMisses += now.CacheMisses
	}
	r.layer["fabric.worker_hit_frac"] = hitFrac(from, to)
	var relay []float64
	t.mu.Lock()
	defer t.mu.Unlock()
	for _, s := range out {
		calls := t.calls[s.name]
		if len(calls) == 0 {
			continue
		}
		first := calls[0]
		for _, c := range calls[1:] {
			if c.end.Before(first.end) {
				first = c
			}
		}
		relay = append(relay, ms(s.handler-first.dur))
	}
	r.layer["fabric.relay_ms"] = mean(relay)
}

// probeCacheHits times Harness.RunJobs on the server's own harness for the
// A/B jobs the clients repeated: every call is a run-cache hit, so this is
// the cache-hit path with no serving layer around it.
func probeCacheHits(r *run, t *topology, out []served) {
	sp := r.tr.start(0, benchLayer, "probe", "cache-hit", 0)
	defer sp.end()
	cfg := serveConfig(tune.Variant{})
	seen := map[string]bool{}
	var total time.Duration
	calls := 0
	for _, s := range out {
		name := s.item.Spec.Bench
		if s.item.Kind != kindAB || seen[name] {
			continue
		}
		seen[name] = true
		prog := findBench(name).MustProgram()
		jobs := []sim.Job{{Cfg: sim.BaselineOf(cfg), Prog: prog}, {Cfg: cfg, Prog: prog}}
		for k := 0; k < 100; k++ {
			call := r.tr.start(0, "sim", "sim.Harness.RunJobs", name, sp.id())
			t0 := time.Now()
			_, err := t.front.Harness().RunJobs(jobs)
			total += time.Since(t0)
			call.end()
			calls += len(jobs)
			r.check(err)
		}
	}
	if calls > 0 {
		r.layer["sim.cache_hit_us"] = float64(total) / float64(calls) / 1e3
	}
}

// probeSourceCompiles compiles and preflights every source job the clients
// sent, the admission work the server did for them, outside the measured
// loop.
func probeSourceCompiles(r *run, out []served) {
	sp := r.tr.start(0, benchLayer, "probe", "compile", 0)
	defer sp.end()
	for _, s := range out {
		if s.item.Kind != kindSource {
			continue
		}
		v := tune.Variant{Deselect: s.item.Spec.Deselect}
		_, err := compileLint(r, s.name, s.item.Spec.Source, v.CompilerOpts())
		r.check(err)
	}
}
