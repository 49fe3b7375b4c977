package serve_test

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"loopfrog/internal/cpu"
	"loopfrog/internal/serve"
	"loopfrog/internal/sim"
	"loopfrog/internal/workloads"

	"loopfrog/internal/asm"
)

// trivialAsm is a legal hint-free program that finishes in a handful of
// cycles.
const trivialAsm = `
main:   li   t0, 7
        addi t0, t0, 35
        halt
`

// spinAsm never halts; only a deadline or cancellation ends it.
const spinAsm = `
main:   addi t0, t0, 1
        jal  x0, main
`

// illegalAsm has a dangling detach (LF001): the backedge is taken with the
// region still open, which lint.Preflight must reject.
const illegalAsm = `
main:   li   t0, 0
        li   t1, 16
loop:   detach cont
        addi t2, t0, 3
cont:   addi t0, t0, 1
        blt  t0, t1, loop
        sync cont
        halt
`

func newTestServer(t *testing.T, cfg serve.Config) (*serve.Server, *httptest.Server) {
	t.Helper()
	s := serve.New(cfg)
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		if err := s.Shutdown(ctx); err != nil {
			t.Errorf("shutdown: %v", err)
		}
		ts.Close()
	})
	return s, ts
}

func post(t *testing.T, ts *httptest.Server, spec map[string]any) (*http.Response, []byte) {
	t.Helper()
	body, err := json.Marshal(spec)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(ts.URL+"/v1/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	payload, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	return resp, payload
}

func TestSubmitSync(t *testing.T) {
	_, ts := newTestServer(t, serve.Config{})
	resp, payload := post(t, ts, map[string]any{"name": "trivial", "asm": trivialAsm})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d, body %s", resp.StatusCode, payload)
	}
	var v struct {
		ID          string `json:"id"`
		Status      string `json:"status"`
		Fingerprint string `json:"fingerprint"`
		Result      *struct {
			Cycles    int64  `json:"cycles"`
			ArchInsts uint64 `json:"arch_insts"`
		} `json:"result"`
	}
	if err := json.Unmarshal(payload, &v); err != nil {
		t.Fatalf("bad body %s: %v", payload, err)
	}
	if v.Status != "done" || v.Result == nil || v.Result.Cycles <= 0 || v.Result.ArchInsts == 0 {
		t.Errorf("unexpected terminal view: %s", payload)
	}
	if len(v.Fingerprint) != 16 {
		t.Errorf("view fingerprint = %q, want 16 hex chars (the run-cache routing key)", v.Fingerprint)
	}
	// The job stays pollable after completion.
	pollResp, pollBody := get(t, ts, "/v1/jobs/"+v.ID)
	if pollResp.StatusCode != http.StatusOK || !bytes.Contains(pollBody, []byte(`"done"`)) {
		t.Errorf("poll after completion: %d %s", pollResp.StatusCode, pollBody)
	}
}

func get(t *testing.T, ts *httptest.Server, path string) (*http.Response, []byte) {
	t.Helper()
	resp, err := http.Get(ts.URL + path)
	if err != nil {
		t.Fatal(err)
	}
	payload, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	return resp, payload
}

// TestSubmitValidation drives every 4xx admission path.
func TestSubmitValidation(t *testing.T) {
	_, ts := newTestServer(t, serve.Config{})
	cases := []struct {
		name string
		spec map[string]any
		want int
	}{
		{"no source", map[string]any{"name": "x"}, http.StatusBadRequest},
		{"two sources", map[string]any{"asm": trivialAsm, "bench": "mcf"}, http.StatusBadRequest},
		{"unknown bench", map[string]any{"bench": "nosuchbench"}, http.StatusBadRequest},
		{"bad priority", map[string]any{"asm": trivialAsm, "priority": "urgent"}, http.StatusBadRequest},
		{"baseline and ab", map[string]any{"asm": trivialAsm, "baseline": true, "ab": true}, http.StatusBadRequest},
		{"negative timeout", map[string]any{"asm": trivialAsm, "timeout_ms": -1}, http.StatusBadRequest},
		{"bad faults", map[string]any{"asm": trivialAsm, "faults": "frobnicate=2"}, http.StatusBadRequest},
		{"bad threadlets", map[string]any{"asm": trivialAsm, "threadlets": -3}, http.StatusBadRequest},
		{"unknown field", map[string]any{"asm": trivialAsm, "bogus": 1}, http.StatusBadRequest},
		{"assembler error", map[string]any{"asm": "main: frob t0"}, http.StatusBadRequest},
		{"lint reject", map[string]any{"asm": illegalAsm}, http.StatusUnprocessableEntity},
		{"body over 4 MiB", map[string]any{"asm": strings.Repeat("#", 4<<20)}, http.StatusRequestEntityTooLarge},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			resp, payload := post(t, ts, tc.spec)
			if resp.StatusCode != tc.want {
				t.Fatalf("status = %d, want %d; body %s", resp.StatusCode, tc.want, payload)
			}
			var e struct {
				Error string `json:"error"`
			}
			if err := json.Unmarshal(payload, &e); err != nil || e.Error == "" {
				t.Errorf("error body missing: %s", payload)
			}
		})
	}
}

// TestLintRejectCarriesReport: the 422 body must include the structured lint
// report, not just a message.
func TestLintRejectCarriesReport(t *testing.T) {
	_, ts := newTestServer(t, serve.Config{})
	resp, payload := post(t, ts, map[string]any{"name": "bad", "asm": illegalAsm})
	if resp.StatusCode != http.StatusUnprocessableEntity {
		t.Fatalf("status = %d, body %s", resp.StatusCode, payload)
	}
	var e struct {
		Error string `json:"error"`
		Lint  *struct {
			Diags []struct {
				Code     string `json:"code"`
				Severity string `json:"severity"`
			} `json:"diagnostics"`
		} `json:"lint"`
	}
	if err := json.Unmarshal(payload, &e); err != nil {
		t.Fatalf("bad 422 body %s: %v", payload, err)
	}
	if e.Lint == nil || len(e.Lint.Diags) == 0 {
		t.Fatalf("422 body has no lint report: %s", payload)
	}
	if !strings.Contains(e.Error, "LF0") {
		t.Errorf("422 error does not cite a legality code: %q", e.Error)
	}
}

// TestQueueFull fills the single-runner, depth-1 interactive lane and
// asserts the next submission bounces with 429 + Retry-After.
func TestQueueFull(t *testing.T) {
	_, ts := newTestServer(t, serve.Config{Runners: 1, QueueDepth: 1})
	// Block the only runner, then occupy the lane slot. The spin jobs
	// expire via their own deadline so Cleanup's drain stays fast.
	spin := map[string]any{"asm": spinAsm, "timeout_ms": 2000, "async": true}
	resp, payload := post(t, ts, spin)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("first submit: %d %s", resp.StatusCode, payload)
	}
	var sawBusy bool
	for i := 0; i < 10; i++ {
		resp, payload = post(t, ts, spin)
		switch resp.StatusCode {
		case http.StatusAccepted:
			continue // runner had not yet picked up the previous job
		case http.StatusTooManyRequests:
			sawBusy = true
			if resp.Header.Get("Retry-After") == "" {
				t.Error("429 without Retry-After")
			}
			var e struct {
				Error string `json:"error"`
			}
			if err := json.Unmarshal(payload, &e); err != nil || !strings.Contains(e.Error, "queue full") {
				t.Errorf("429 body: %s", payload)
			}
		default:
			t.Fatalf("submit %d: status %d, body %s", i, resp.StatusCode, payload)
		}
		if sawBusy {
			break
		}
	}
	if !sawBusy {
		t.Fatal("never saw a 429 despite a blocked depth-1 lane")
	}
}

// TestDeadline504: a non-halting program with a short deadline answers 504.
func TestDeadline504(t *testing.T) {
	_, ts := newTestServer(t, serve.Config{})
	resp, payload := post(t, ts, map[string]any{"asm": spinAsm, "timeout_ms": 100})
	if resp.StatusCode != http.StatusGatewayTimeout {
		t.Fatalf("status = %d, want 504; body %s", resp.StatusCode, payload)
	}
	if !bytes.Contains(payload, []byte(`"failed"`)) {
		t.Errorf("504 view not failed: %s", payload)
	}
}

// TestPanic500AndQuarantine: an injected deterministic panic answers 500
// (stack retained server-side), and resubmitting the identical job hits the
// harness quarantine — also 500, without a third crash.
func TestPanic500AndQuarantine(t *testing.T) {
	s, ts := newTestServer(t, serve.Config{})
	spec := map[string]any{"asm": trivialAsm, "faults": "panic=1", "seed": 1}
	resp, payload := post(t, ts, spec)
	if resp.StatusCode != http.StatusInternalServerError {
		t.Fatalf("status = %d, want 500; body %s", resp.StatusCode, payload)
	}
	if !bytes.Contains(payload, []byte("panic")) {
		t.Errorf("500 body does not mention the panic: %s", payload)
	}
	resp, payload = post(t, ts, spec)
	if resp.StatusCode != http.StatusInternalServerError {
		t.Fatalf("resubmit status = %d, want 500; body %s", resp.StatusCode, payload)
	}
	if !bytes.Contains(payload, []byte("quarantined")) {
		t.Errorf("resubmit not quarantined: %s", payload)
	}
	if st := s.Harness().Stats(); st.Quarantined == 0 {
		t.Error("harness quarantine counter is zero")
	}
}

// TestAsyncPoll: async submissions return 202 + Location immediately and the
// result arrives by polling.
func TestAsyncPoll(t *testing.T) {
	_, ts := newTestServer(t, serve.Config{})
	resp, payload := post(t, ts, map[string]any{"asm": trivialAsm, "async": true})
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("status = %d, body %s", resp.StatusCode, payload)
	}
	loc := resp.Header.Get("Location")
	if loc == "" {
		t.Fatal("202 without Location")
	}
	var accepted struct {
		Fingerprint string `json:"fingerprint"`
	}
	if err := json.Unmarshal(payload, &accepted); err != nil || len(accepted.Fingerprint) != 16 {
		t.Errorf("202 view missing routing fingerprint: %s", payload)
	}
	deadline := time.Now().Add(10 * time.Second)
	for {
		resp, payload = get(t, ts, loc)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("poll status = %d, body %s", resp.StatusCode, payload)
		}
		var v struct {
			Status string `json:"status"`
		}
		if err := json.Unmarshal(payload, &v); err != nil {
			t.Fatal(err)
		}
		if v.Status == "done" {
			return
		}
		if v.Status == "failed" || v.Status == "cancelled" || time.Now().After(deadline) {
			t.Fatalf("job never finished: %s", payload)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

func TestUnknownJob404(t *testing.T) {
	_, ts := newTestServer(t, serve.Config{})
	resp, _ := get(t, ts, "/v1/jobs/job-99999999")
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("status = %d, want 404", resp.StatusCode)
	}
}

// TestSSEStream: streaming a spinning job yields a status event, at least
// one progress sample with advancing cycles, and a terminal done event.
func TestSSEStream(t *testing.T) {
	_, ts := newTestServer(t, serve.Config{ProgressInterval: 10 * time.Millisecond})
	resp, payload := post(t, ts, map[string]any{"asm": spinAsm, "timeout_ms": 800, "async": true})
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit: %d %s", resp.StatusCode, payload)
	}
	var v struct {
		ID string `json:"id"`
	}
	if err := json.Unmarshal(payload, &v); err != nil {
		t.Fatal(err)
	}
	stream, err := http.Get(ts.URL + "/v1/jobs/" + v.ID + "?stream=1")
	if err != nil {
		t.Fatal(err)
	}
	defer stream.Body.Close()
	if ct := stream.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("Content-Type = %q", ct)
	}
	var events []string
	var lastCycles, progressSamples int64
	sc := bufio.NewScanner(stream.Body)
	var event string
	for sc.Scan() {
		line := sc.Text()
		switch {
		case strings.HasPrefix(line, "event: "):
			event = strings.TrimPrefix(line, "event: ")
			events = append(events, event)
		case strings.HasPrefix(line, "data: "):
			data := strings.TrimPrefix(line, "data: ")
			if event == "progress" {
				var p struct {
					Cycles      int64  `json:"cycles"`
					Fingerprint string `json:"fingerprint"`
				}
				if err := json.Unmarshal([]byte(data), &p); err != nil {
					t.Fatalf("bad progress %q: %v", data, err)
				}
				if p.Cycles < lastCycles {
					t.Errorf("cycles went backwards: %d -> %d", lastCycles, p.Cycles)
				}
				if len(p.Fingerprint) != 16 {
					t.Errorf("progress event missing routing fingerprint: %q", data)
				}
				lastCycles = p.Cycles
				progressSamples++
			}
		}
	}
	if len(events) == 0 || events[0] != "status" {
		t.Fatalf("stream did not open with a status event: %v", events)
	}
	if events[len(events)-1] != "done" {
		t.Fatalf("stream did not close with a done event: %v", events)
	}
	if progressSamples == 0 {
		t.Error("no progress event during an 800ms spin")
	}
	if lastCycles == 0 {
		t.Error("progress never reported advancing cycles")
	}
}

// TestE2ESpeedupMatchesLfsim: the daemon's AB result must equal what running
// the simulator directly produces — same cycles both sides, same speedup
// formula (baseline cycles / loopfrog cycles), because the daemon is a
// scheduler in front of the same deterministic machine.
func TestE2ESpeedupMatchesLfsim(t *testing.T) {
	src, err := os.ReadFile("../../examples/quickstart/asm/quickstart.s")
	if err != nil {
		t.Fatal(err)
	}
	prog, err := asm.Assemble("quickstart", string(src))
	if err != nil {
		t.Fatal(err)
	}
	cfg := cpu.DefaultConfig()
	base, err := sim.Run(sim.BaselineOf(cfg), prog)
	if err != nil {
		t.Fatal(err)
	}
	lf, err := sim.Run(cfg, prog)
	if err != nil {
		t.Fatal(err)
	}
	want := float64(base.Cycles) / float64(lf.Cycles)

	_, ts := newTestServer(t, serve.Config{})
	resp, payload := post(t, ts, map[string]any{"name": "quickstart", "asm": string(src), "ab": true})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d, body %s", resp.StatusCode, payload)
	}
	var v struct {
		Result struct {
			BaselineCycles int64   `json:"baseline_cycles"`
			LoopFrogCycles int64   `json:"loopfrog_cycles"`
			Speedup        float64 `json:"speedup"`
		} `json:"result"`
	}
	if err := json.Unmarshal(payload, &v); err != nil {
		t.Fatal(err)
	}
	if v.Result.BaselineCycles != base.Cycles || v.Result.LoopFrogCycles != lf.Cycles {
		t.Errorf("cycles diverge: served %d/%d, direct %d/%d",
			v.Result.BaselineCycles, v.Result.LoopFrogCycles, base.Cycles, lf.Cycles)
	}
	if v.Result.Speedup != want {
		t.Errorf("speedup = %v, want %v", v.Result.Speedup, want)
	}
}

// TestSampledJob covers the sampled job mode: spec validation, and a sampled
// A/B estimate of a built-in bench that must land within the documented 2%
// of the full detailed cycle counts.
func TestSampledJob(t *testing.T) {
	_, ts := newTestServer(t, serve.Config{})

	for _, bad := range []map[string]any{
		{"asm": trivialAsm, "sample_window": 1000},                                       // params without sampled
		{"asm": trivialAsm, "sampled": true, "faults": "conflict:p=0.5"},                 // faults need full detail
		{"asm": trivialAsm, "sampled": true, "sample_interval": 10, "sample_warmup": 10}, // warmup >= interval
	} {
		if resp, payload := post(t, ts, bad); resp.StatusCode != http.StatusBadRequest {
			t.Errorf("spec %v: status = %d, want 400 (body %s)", bad, resp.StatusCode, payload)
		}
	}

	prog := workloads.ByName(workloads.CPU2017(), "leela").MustProgram()
	cfg := cpu.DefaultConfig()
	base, err := sim.Run(sim.BaselineOf(cfg), prog)
	if err != nil {
		t.Fatal(err)
	}
	lf, err := sim.Run(cfg, prog)
	if err != nil {
		t.Fatal(err)
	}

	resp, payload := post(t, ts, map[string]any{"bench": "leela", "ab": true, "sampled": true})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d, body %s", resp.StatusCode, payload)
	}
	var v struct {
		Result struct {
			Sampled        bool    `json:"sampled"`
			Windows        int     `json:"windows"`
			Cycles         int64   `json:"cycles"`
			BaselineCycles int64   `json:"baseline_cycles"`
			LoopFrogCycles int64   `json:"loopfrog_cycles"`
			Speedup        float64 `json:"speedup"`
			Tier1IPS       float64 `json:"tier1_insts_per_sec"`
		} `json:"result"`
	}
	if err := json.Unmarshal(payload, &v); err != nil {
		t.Fatal(err)
	}
	r := v.Result
	if !r.Sampled || r.Windows < 1 || r.Tier1IPS <= 0 || r.Speedup <= 0 {
		t.Fatalf("sampled result shape wrong: %+v", r)
	}
	checkEst := func(side string, est, full int64) {
		e := float64(est)/float64(full) - 1
		if e < 0 {
			e = -e
		}
		if e > 0.02 {
			t.Errorf("%s estimate %d vs full %d: error %.2f%% exceeds 2%%", side, est, full, 100*e)
		}
	}
	checkEst("baseline", r.BaselineCycles, base.Cycles)
	checkEst("loopfrog", r.LoopFrogCycles, lf.Cycles)
	if r.Cycles != r.LoopFrogCycles {
		t.Errorf("cycles %d should carry the LoopFrog estimate %d", r.Cycles, r.LoopFrogCycles)
	}
}

// TestMetricsAndVersionEndpoints spot-checks the observability surface.
func TestMetricsAndVersionEndpoints(t *testing.T) {
	_, ts := newTestServer(t, serve.Config{})
	if resp, payload := post(t, ts, map[string]any{"asm": trivialAsm}); resp.StatusCode != http.StatusOK {
		t.Fatalf("warmup job: %d %s", resp.StatusCode, payload)
	}
	resp, payload := get(t, ts, "/metrics")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/metrics: %d", resp.StatusCode)
	}
	var doc struct {
		Metrics map[string]float64 `json:"metrics"`
	}
	if err := json.Unmarshal(payload, &doc); err != nil {
		t.Fatalf("bad metrics JSON: %v", err)
	}
	for _, key := range []string{"serve.Admitted", "serve.Inflight", "serve.QueueCapacity", "serve.LatencyP99Seconds", "harness.Jobs"} {
		if _, ok := doc.Metrics[key]; !ok {
			t.Errorf("metrics missing %q", key)
		}
	}
	if doc.Metrics["serve.Admitted"] < 1 || doc.Metrics["harness.Jobs"] < 1 {
		t.Errorf("counters did not move: %v", doc.Metrics["serve.Admitted"])
	}

	resp, payload = get(t, ts, "/healthz")
	if resp.StatusCode != http.StatusOK || !bytes.Contains(payload, []byte(`"ok"`)) {
		t.Errorf("/healthz: %d %s", resp.StatusCode, payload)
	}
	resp, payload = get(t, ts, "/readyz")
	if resp.StatusCode != http.StatusOK || !bytes.Contains(payload, []byte(`"ready"`)) {
		t.Errorf("/readyz: %d %s", resp.StatusCode, payload)
	}
	resp, payload = get(t, ts, "/v1/version")
	if resp.StatusCode != http.StatusOK || !bytes.Contains(payload, []byte("lfservd")) {
		t.Errorf("/v1/version: %d %s", resp.StatusCode, payload)
	}
}

// TestDrainingRejectsAndReadyzFlips: once Shutdown begins, readyz answers 503
// (the readiness probe takes the node out of rotation) while healthz stays
// 200 with the draining flag (the process is still alive), and new
// submissions are refused while admitted jobs complete.
func TestDrainingRejectsAndReadyzFlips(t *testing.T) {
	s := serve.New(serve.Config{})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()
	done := make(chan error, 1)
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		done <- s.Shutdown(ctx)
	}()
	// Draining flips synchronously before the drain wait, but give the
	// goroutine a beat to be scheduled.
	var code int
	for i := 0; i < 100; i++ {
		resp, _ := get(t, ts, "/readyz")
		code = resp.StatusCode
		if code == http.StatusServiceUnavailable {
			break
		}
		time.Sleep(10 * time.Millisecond)
	}
	if code != http.StatusServiceUnavailable {
		t.Fatalf("readyz while draining = %d, want 503", code)
	}
	resp, payload := get(t, ts, "/healthz")
	if resp.StatusCode != http.StatusOK {
		t.Errorf("healthz while draining = %d, want 200 (liveness)", resp.StatusCode)
	}
	if !bytes.Contains(payload, []byte(`"draining": true`)) {
		t.Errorf("healthz body does not report draining: %s", payload)
	}
	resp, _ = post(t, ts, map[string]any{"asm": trivialAsm})
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("submit while draining = %d, want 503", resp.StatusCode)
	}
	if err := <-done; err != nil {
		t.Fatalf("shutdown: %v", err)
	}
}

// TestSaturation64Clients is the acceptance-criterion load test: 64
// concurrent clients, mixed cached A/B and uncached quickstart jobs, against
// a small queue so backpressure really engages. Every non-429 response must
// be a 200 with a result (an A/B one with a speedup), every 429 must carry
// Retry-After, and after drain the process must be back to its starting
// goroutine count (no leaked runner, watcher, or machine).
func TestSaturation64Clients(t *testing.T) {
	if testing.Short() {
		t.Skip("load test")
	}
	src, err := os.ReadFile("../../examples/quickstart/asm/quickstart.s")
	if err != nil {
		t.Fatal(err)
	}
	before := runtime.NumGoroutine()

	s := serve.New(serve.Config{QueueDepth: 8})
	ts := httptest.NewServer(s.Handler())

	const clients = 64
	duration := 2 * time.Second
	var ok, rejected, other atomic.Uint64
	var firstBad atomic.Value
	deadline := time.Now().Add(duration)
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			client := &http.Client{Timeout: time.Minute}
			for i := 0; time.Now().Before(deadline); i++ {
				// Even clients resubmit one A/B job (cache hits and flight
				// joins); odd clients vary max_cycles so every request is a
				// distinct cache key and really simulates.
				ab := c%2 == 0
				spec := map[string]any{"asm": string(src), "priority": "sweep", "ab": ab}
				if !ab {
					spec["max_cycles"] = 1_000_000 + c*100_000 + i
					spec["priority"] = "interactive"
				}
				body, _ := json.Marshal(spec)
				resp, err := client.Post(ts.URL+"/v1/jobs", "application/json", bytes.NewReader(body))
				if err != nil {
					firstBad.CompareAndSwap(nil, fmt.Sprintf("POST: %v", err))
					other.Add(1)
					return
				}
				payload, _ := io.ReadAll(resp.Body)
				resp.Body.Close()
				switch resp.StatusCode {
				case http.StatusOK:
					var v struct {
						Status string `json:"status"`
						Result *struct {
							Speedup float64 `json:"speedup"`
						} `json:"result"`
					}
					switch err := json.Unmarshal(payload, &v); {
					case err != nil || v.Status != "done" || v.Result == nil:
						firstBad.CompareAndSwap(nil, "200 without a done result: "+string(payload))
						other.Add(1)
					case ab && v.Result.Speedup <= 0:
						firstBad.CompareAndSwap(nil, "A/B 200 without a speedup: "+string(payload))
						other.Add(1)
					default:
						ok.Add(1)
					}
				case http.StatusTooManyRequests:
					rejected.Add(1)
					if resp.Header.Get("Retry-After") == "" {
						firstBad.CompareAndSwap(nil, "429 without Retry-After")
						other.Add(1)
					}
					time.Sleep(20 * time.Millisecond)
				default:
					firstBad.CompareAndSwap(nil, fmt.Sprintf("status %d: %s", resp.StatusCode, payload))
					other.Add(1)
				}
			}
		}(c)
	}
	wg.Wait()

	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := s.Shutdown(ctx); err != nil {
		t.Errorf("drain after load: %v", err)
	}
	ts.Close()

	if other.Load() > 0 {
		t.Errorf("%d contract violations; first: %v", other.Load(), firstBad.Load())
	}
	if ok.Load() == 0 {
		t.Fatal("no job succeeded under load")
	}
	t.Logf("load: %d ok, %d rejected (429), cache hits %d", ok.Load(), rejected.Load(), s.Harness().Stats().CacheHits)

	// Goroutine accounting: allow slack for the HTTP client/server teardown
	// still winding down, then insist we return to the baseline.
	deadline = time.Now().Add(10 * time.Second)
	for {
		runtime.GC()
		now := runtime.NumGoroutine()
		if now <= before+4 {
			break
		}
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<20)
			n := runtime.Stack(buf, true)
			t.Fatalf("goroutine leak after drain: %d -> %d\n%s", before, now, buf[:n])
		}
		time.Sleep(100 * time.Millisecond)
	}
}
