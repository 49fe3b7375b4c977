package serve_test

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"loopfrog/internal/serve"
	"loopfrog/internal/sim"
	"loopfrog/internal/tune"
	"loopfrog/internal/workloads"
)

func TestUnknownKindRejected(t *testing.T) {
	_, ts := newTestServer(t, serve.Config{})
	resp, payload := post(t, ts, map[string]any{"kind": "fuzz", "asm": trivialAsm})
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("status = %d, want 400; body %s", resp.StatusCode, payload)
	}
	body := string(payload)
	if !strings.Contains(body, "unknown kind") {
		t.Errorf("reject does not name the problem: %s", body)
	}
	for _, kind := range serve.AllowedKinds() {
		if !strings.Contains(body, `\"`+kind+`\"`) && !strings.Contains(body, `"`+kind+`"`) {
			t.Errorf("reject does not list allowed kind %q: %s", kind, body)
		}
	}
}

func TestTuneKnobsRequireTuneKind(t *testing.T) {
	_, ts := newTestServer(t, serve.Config{})
	resp, payload := post(t, ts, map[string]any{"asm": trivialAsm, "budget": 32})
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("budget on a sim job: status = %d, want 400; body %s", resp.StatusCode, payload)
	}
	resp, payload = post(t, ts, map[string]any{"kind": "tune", "asm": trivialAsm})
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("tune of an asm image: status = %d, want 400; body %s", resp.StatusCode, payload)
	}
	resp, payload = post(t, ts, map[string]any{"kind": "tune", "bench": "leela", "priority": "interactive"})
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("tune on the interactive lane: status = %d, want 400; body %s", resp.StatusCode, payload)
	}
	// The search has no budget to ration, no halving fraction and nothing to
	// seed: each knob is refused rather than silently ignored.
	for _, knob := range []string{"budget", "eta", "seed"} {
		resp, payload = post(t, ts, map[string]any{"kind": "tune", "bench": "leela", knob: 3})
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s on a tune job: status = %d, want 400; body %s", knob, resp.StatusCode, payload)
		}
	}
}

// tuneView decodes the terminal job view of a tune submission.
type tuneView struct {
	Status   string           `json:"status"`
	Priority string           `json:"priority"`
	Error    string           `json:"error"`
	Result   *serve.JobResult `json:"result"`
}

func postTune(t *testing.T, ts *serve.Server, url string, spec map[string]any) (int, tuneView) {
	t.Helper()
	body, err := json.Marshal(spec)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url+"/v1/tune", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	payload, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	var v tuneView
	if err := json.Unmarshal(payload, &v); err != nil {
		t.Fatalf("bad body %s: %v", payload, err)
	}
	return resp.StatusCode, v
}

func TestTuneRoundTrip(t *testing.T) {
	s, ts := newTestServer(t, serve.Config{})
	code, v := postTune(t, s, ts.URL, map[string]any{"bench": "leela"})
	if code != http.StatusOK || v.Status != "done" {
		t.Fatalf("tune round-trip: %d %s %s", code, v.Status, v.Error)
	}
	if v.Priority != serve.PrioritySweep {
		t.Errorf("tune job priority = %q, want sweep lane", v.Priority)
	}
	rep := v.Result.Tune
	if rep == nil {
		t.Fatal("tune result carries no search report")
	}
	if rep.Program != "leela" || rep.SpaceSize == 0 || len(rep.Ranking) == 0 {
		t.Fatalf("hollow report: program=%q space=%d ranking=%d", rep.Program, rep.SpaceSize, len(rep.Ranking))
	}
	// Enumeration partitions into pruned and ranked variants.
	if len(rep.Pruned)+len(rep.Ranking) != rep.SpaceSize {
		t.Errorf("%d pruned + %d ranked != %d enumerated", len(rep.Pruned), len(rep.Ranking), rep.SpaceSize)
	}
	if rep.Winner.Score <= 0 || rep.Winner.Score < rep.Static.Score {
		t.Errorf("winner score %.4f (static %.4f): anchor should bound the winner from below",
			rep.Winner.Score, rep.Static.Score)
	}
}

// loopbackExec is a RemoteExecutor that forwards each spec to a second,
// worker-role daemon over real HTTP — the fabric fan-out path minus the ring.
type loopbackExec struct {
	url   string
	calls atomic.Int64

	mu   sync.Mutex
	keys map[string]int
}

func (e *loopbackExec) ExecuteRemote(ctx context.Context, fp string, spec serve.JobSpec) (*serve.RemoteResult, error) {
	e.calls.Add(1)
	e.mu.Lock()
	if e.keys == nil {
		e.keys = make(map[string]int)
	}
	e.keys[fp]++
	e.mu.Unlock()
	body, err := json.Marshal(spec)
	if err != nil {
		return nil, err
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, e.url+"/v1/jobs", bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return nil, err
	}
	payload, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		return nil, err
	}
	var view struct {
		Status string           `json:"status"`
		Error  string           `json:"error"`
		Result *serve.JobResult `json:"result"`
	}
	if err := json.Unmarshal(payload, &view); err != nil {
		return nil, err
	}
	return &serve.RemoteResult{
		Worker:     "loopback",
		Status:     view.Status,
		HTTPStatus: resp.StatusCode,
		Error:      view.Error,
		Result:     view.Result,
	}, nil
}

func TestTuneFabricFanOut(t *testing.T) {
	_, worker := newTestServer(t, serve.Config{})
	exec := &loopbackExec{url: worker.URL}
	s, ts := newTestServer(t, serve.Config{Remote: exec})
	code, v := postTune(t, s, ts.URL, map[string]any{"bench": "leela"})
	if code != http.StatusOK || v.Status != "done" {
		t.Fatalf("fanned-out tune: %d %s %s", code, v.Status, v.Error)
	}
	rep := v.Result.Tune
	if rep == nil || len(rep.Ranking) == 0 {
		t.Fatal("fanned-out tune returned no report")
	}
	want := int64(len(rep.Ranking)) + 1 // every candidate and the shared baseline
	if got := exec.calls.Load(); got != want {
		t.Errorf("remote dispatches = %d, want %d (every evaluation remote)", got, want)
	}
	exec.mu.Lock()
	defer exec.mu.Unlock()
	for fp := range exec.keys {
		if len(fp) != 16 {
			t.Errorf("dispatch routed on malformed fingerprint %q", fp)
		}
	}
}

// TestTuneEvaluatorsAgree: the tuner scores an evaluation the same whether
// it runs on the local harness or as a sim job on a worker, for a variant and
// for the shared baseline.
func TestTuneEvaluatorsAgree(t *testing.T) {
	_, worker := newTestServer(t, serve.Config{})
	s, _ := newTestServer(t, serve.Config{Remote: &loopbackExec{url: worker.URL}})
	src := workloads.Find("leela").Source()
	reqs := []tune.EvalRequest{
		{Program: "leela", Source: src, Variant: tune.Variant{PackFactor: 4, GranuleBytes: 8}},
		{Program: "leela", Source: src, Baseline: true},
	}
	ctx := context.Background()
	local, lerrs := tune.Local{H: &sim.Harness{}}.Evaluate(ctx, reqs)
	remote, rerrs := serve.FabricEvaluator(s, time.Minute).Evaluate(ctx, reqs)
	for i, req := range reqs {
		if lerrs[i] != nil || rerrs[i] != nil {
			t.Fatalf("baseline=%v: local err %v, fabric err %v", req.Baseline, lerrs[i], rerrs[i])
		}
		l, r := local[i], remote[i]
		if l.Cycles != r.Cycles || l.Insts != r.Insts || l.Fingerprint != r.Fingerprint {
			t.Errorf("baseline=%v: local %d cycles, %d insts, %s; fabric %d cycles, %d insts, %s",
				req.Baseline, l.Cycles, l.Insts, l.Fingerprint, r.Cycles, r.Insts, r.Fingerprint)
		}
	}
}

// failingExec reports an empty fabric on every placement, forcing the
// degradation path: every evaluation must fall back to the local
// harness and the search still completes.
type failingExec struct{ calls atomic.Int64 }

func (e *failingExec) ExecuteRemote(ctx context.Context, fp string, spec serve.JobSpec) (*serve.RemoteResult, error) {
	e.calls.Add(1)
	return nil, serve.ErrRemoteUnavailable
}

func TestTuneFabricDegradesToLocal(t *testing.T) {
	exec := &failingExec{}
	s, ts := newTestServer(t, serve.Config{Remote: exec})
	code, v := postTune(t, s, ts.URL, map[string]any{"bench": "leela"})
	if code != http.StatusOK || v.Status != "done" {
		t.Fatalf("degraded tune: %d %s %s", code, v.Status, v.Error)
	}
	if exec.calls.Load() == 0 {
		t.Error("degradation test never touched the fabric")
	}
	if v.Result.Tune == nil || v.Result.Tune.Winner.Score <= 0 {
		t.Error("degraded tune returned no usable winner")
	}
}
