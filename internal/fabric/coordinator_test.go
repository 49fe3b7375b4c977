package fabric

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"loopfrog/internal/serve"
)

// fakeWorker is a scriptable worker endpoint: readyz behaviour and the jobs
// handler are swappable at runtime, so tests drive the failure detector and
// dispatch classification without real simulations.
type fakeWorker struct {
	id string
	ts *httptest.Server
	// readyMode: 0 = 200 ready, 1 = abort the connection (hard probe
	// failure), 2 = 503 draining.
	readyMode atomic.Int32
	// probes counts /readyz requests.
	probes atomic.Int32
	jobs   atomic.Pointer[http.HandlerFunc]
	// gotJobs counts /v1/jobs requests, so tests can tell which worker a
	// dispatch actually landed on (a failover moves a key off its ring home).
	gotJobs atomic.Int32
}

func newFakeWorker(t *testing.T, id string, jobs http.HandlerFunc) *fakeWorker {
	t.Helper()
	f := &fakeWorker{id: id}
	f.jobs.Store(&jobs)
	mux := http.NewServeMux()
	mux.HandleFunc("/readyz", func(w http.ResponseWriter, r *http.Request) {
		f.probes.Add(1)
		switch f.readyMode.Load() {
		case 1:
			panic(http.ErrAbortHandler)
		case 2:
			w.WriteHeader(http.StatusServiceUnavailable)
			fmt.Fprint(w, `{"status":"draining"}`)
		default:
			fmt.Fprint(w, `{"status":"ready"}`)
		}
	})
	mux.HandleFunc("/v1/jobs", func(w http.ResponseWriter, r *http.Request) {
		f.gotJobs.Add(1)
		// Consume the body first: net/http only watches for client aborts
		// (r.Context cancellation) once the request body has been read, and
		// several tests park handlers on that context.
		io.Copy(io.Discard, r.Body)
		(*f.jobs.Load())(w, r)
	})
	f.ts = httptest.NewServer(mux)
	t.Cleanup(f.ts.Close)
	return f
}

func okView(worker string) string {
	return fmt.Sprintf(`{"id":"j","status":"done","result":{"program":"fake","cycles":42,"arch_insts":7,"worker":%q}}`, worker)
}

// fastConfig keeps probe clocks test-sized.
func fastConfig() Config {
	return Config{
		ProbeInterval: 10 * time.Millisecond,
		ProbeTimeout:  250 * time.Millisecond,
		Detector:      DetectorConfig{MinInterval: 50 * time.Millisecond},
	}
}

func newTestCoordinator(t *testing.T, cfg Config, workers ...*fakeWorker) *Coordinator {
	t.Helper()
	if cfg.Logf == nil {
		cfg.Logf = t.Logf
	}
	c := NewCoordinator(cfg)
	t.Cleanup(c.Close)
	for _, f := range workers {
		if err := c.AddWorker(JoinInfo{ID: f.id, URL: f.ts.URL, Runners: 2}); err != nil {
			t.Fatal(err)
		}
	}
	return c
}

func waitFor(t *testing.T, what string, timeout time.Duration, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("timed out waiting for %s", what)
}

func TestExecuteRemoteHappyPath(t *testing.T) {
	f := newFakeWorker(t, "w1", func(w http.ResponseWriter, r *http.Request) {
		fmt.Fprint(w, okView("w1"))
	})
	c := newTestCoordinator(t, fastConfig(), f)
	rr, err := c.ExecuteRemote(context.Background(), "fp-1", serve.JobSpec{Asm: "x", TimeoutMS: 5000})
	if err != nil {
		t.Fatal(err)
	}
	if rr.Worker != "w1" || rr.Status != "done" || rr.HTTPStatus != 200 || rr.Result == nil || rr.Result.Cycles != 42 {
		t.Fatalf("unexpected result: %+v", rr)
	}
	if st := c.Stats(); st.Jobs != 1 || st.Dispatches != 1 {
		t.Errorf("stats = %+v", st)
	}
}

func TestNoWorkersIsUnavailable(t *testing.T) {
	c := newTestCoordinator(t, fastConfig())
	_, err := c.ExecuteRemote(context.Background(), "fp-1", serve.JobSpec{TimeoutMS: 1000})
	if !errors.Is(err, serve.ErrRemoteUnavailable) {
		t.Fatalf("err = %v, want ErrRemoteUnavailable", err)
	}
	if st := c.Stats(); st.Degradations != 1 {
		t.Errorf("degradations = %d, want 1", st.Degradations)
	}
}

func TestTransientAnswersRetryWithBackoff(t *testing.T) {
	var calls atomic.Int32
	f := newFakeWorker(t, "w1", func(w http.ResponseWriter, r *http.Request) {
		if calls.Add(1) <= 2 {
			w.WriteHeader(http.StatusTooManyRequests)
			return
		}
		fmt.Fprint(w, okView("w1"))
	})
	c := newTestCoordinator(t, fastConfig(), f)
	rr, err := c.ExecuteRemote(context.Background(), "fp-1", serve.JobSpec{TimeoutMS: 5000})
	if err != nil {
		t.Fatal(err)
	}
	if rr.Result == nil || calls.Load() != 3 {
		t.Fatalf("result %+v after %d calls, want success on 3rd", rr, calls.Load())
	}
	if st := c.Stats(); st.Retries != 2 {
		t.Errorf("retries = %d, want 2", st.Retries)
	}
}

func TestRetriesExhaustToUnavailable(t *testing.T) {
	f := newFakeWorker(t, "w1", func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(http.StatusServiceUnavailable)
	})
	c := newTestCoordinator(t, fastConfig(), f)
	_, err := c.ExecuteRemote(context.Background(), "fp-1", serve.JobSpec{TimeoutMS: 5000})
	if !errors.Is(err, serve.ErrRemoteUnavailable) {
		t.Fatalf("err = %v, want ErrRemoteUnavailable after retry budget", err)
	}
	if st := c.Stats(); st.Retries != maxDispatchRetries {
		t.Errorf("retries = %d, want %d", st.Retries, maxDispatchRetries)
	}
}

// TestPanicAnswerQuarantinesPair: a worker that answers a job with a panic
// gets the (worker, fingerprint) pair quarantined and the job one reroute;
// when every worker has panicked on the key, the failure is relayed and the
// key's next submission finds no eligible worker.
func TestPanicAnswerQuarantinesPair(t *testing.T) {
	panicAnswer := func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(http.StatusInternalServerError)
		fmt.Fprint(w, `{"id":"j","status":"failed","error":"sim: worker panic: boom (stack retained server-side, job quarantined on repeat)"}`)
	}
	w1 := newFakeWorker(t, "w1", panicAnswer)
	w2 := newFakeWorker(t, "w2", panicAnswer)
	c := newTestCoordinator(t, fastConfig(), w1, w2)

	rr, err := c.ExecuteRemote(context.Background(), "fp-panic", serve.JobSpec{TimeoutMS: 5000})
	if err != nil {
		t.Fatal(err)
	}
	if rr.HTTPStatus != http.StatusInternalServerError || rr.Status != "failed" || !strings.Contains(rr.Error, "panic") {
		t.Fatalf("relayed result = %+v, want the worker's panic failure", rr)
	}
	st := c.Stats()
	if st.PairsBlocked != 2 {
		t.Errorf("pairs blocked = %d, want 2 (both workers panicked on the key)", st.PairsBlocked)
	}
	if st.Reroutes != 1 {
		t.Errorf("reroutes = %d, want exactly 1 panic reroute", st.Reroutes)
	}
	// The key is now unplaceable; other keys still route.
	if _, err := c.ExecuteRemote(context.Background(), "fp-panic", serve.JobSpec{TimeoutMS: 5000}); !errors.Is(err, serve.ErrRemoteUnavailable) {
		t.Errorf("quarantined key err = %v, want ErrRemoteUnavailable", err)
	}
}

// TestWorkerDeathRequeuesExactlyOnce: the worker running the job dies (hard
// probe failures), the in-flight dispatch is cancelled and requeued to the
// survivor; when the survivor dies too, the client gets the typed
// serve.ErrWorkerLost instead of an unbounded retry loop.
func TestWorkerDeathRequeuesExactlyOnce(t *testing.T) {
	hang := func(w http.ResponseWriter, r *http.Request) {
		<-r.Context().Done()
	}
	w1 := newFakeWorker(t, "w1", hang)
	w2 := newFakeWorker(t, "w2", hang)
	c := newTestCoordinator(t, fastConfig(), w1, w2)

	errc := make(chan error, 1)
	go func() {
		_, err := c.ExecuteRemote(context.Background(), "fp-doomed", serve.JobSpec{TimeoutMS: 30_000})
		errc <- err
	}()
	waitFor(t, "first dispatch in flight", 2*time.Second, func() bool {
		return w1.gotJobs.Load()+w2.gotJobs.Load() >= 1
	})
	first, second := w1, w2
	if w2.gotJobs.Load() > 0 {
		first, second = w2, w1
	}
	first.readyMode.Store(1)
	waitFor(t, "death requeue", 5*time.Second, func() bool { return c.Stats().Requeues == 1 })
	waitFor(t, "second dispatch in flight", 5*time.Second, func() bool { return second.gotJobs.Load() >= 1 })
	second.readyMode.Store(1)

	select {
	case err := <-errc:
		if !errors.Is(err, serve.ErrWorkerLost) {
			t.Fatalf("err = %v, want ErrWorkerLost after the second death", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("job never resolved after both workers died")
	}
	st := c.Stats()
	if st.Requeues != 1 {
		t.Errorf("requeues = %d, want exactly 1", st.Requeues)
	}
	if st.WorkersDead != 2 {
		t.Errorf("workersDead = %d, want 2", st.WorkersDead)
	}
}

// TestDrainingWorkerParksAndRecovers: a worker answering readyz 503 leaves
// the ring (no new placements) without being declared dead, and rejoins as
// soon as it reports ready again.
func TestDrainingWorkerParksAndRecovers(t *testing.T) {
	f := newFakeWorker(t, "w1", func(w http.ResponseWriter, r *http.Request) {
		fmt.Fprint(w, okView("w1"))
	})
	c := newTestCoordinator(t, fastConfig(), f)
	waitFor(t, "worker alive", 2*time.Second, func() bool { return c.Stats().WorkersLive == 1 })

	f.readyMode.Store(2)
	waitFor(t, "worker parked", 2*time.Second, func() bool { return c.Stats().WorkersLive == 0 })
	if c.Stats().WorkersDead != 0 {
		t.Errorf("draining worker was declared dead")
	}
	if _, err := c.ExecuteRemote(context.Background(), "fp-1", serve.JobSpec{TimeoutMS: 1000}); !errors.Is(err, serve.ErrRemoteUnavailable) {
		t.Errorf("err = %v, want ErrRemoteUnavailable while the only worker drains", err)
	}

	f.readyMode.Store(0)
	waitFor(t, "worker recovered", 2*time.Second, func() bool { return c.Stats().WorkersLive == 1 })
	if _, err := c.ExecuteRemote(context.Background(), "fp-1", serve.JobSpec{TimeoutMS: 5000}); err != nil {
		t.Errorf("post-recovery job failed: %v", err)
	}
}

func TestJoinEndpointAndMembers(t *testing.T) {
	f := newFakeWorker(t, "w9", func(w http.ResponseWriter, r *http.Request) {
		fmt.Fprint(w, okView("w9"))
	})
	c := newTestCoordinator(t, fastConfig())
	front := httptest.NewServer(c.Mount(http.NotFoundHandler()))
	t.Cleanup(front.Close)

	body := fmt.Sprintf(`{"id":"w9","url":%q,"runners":2}`, f.ts.URL)
	resp, err := http.Post(front.URL+"/fabric/join", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("join: %d", resp.StatusCode)
	}
	// Bad joins are rejected.
	resp, err = http.Post(front.URL+"/fabric/join", "application/json", strings.NewReader(`{"id":"","url":"nope"}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad join: %d, want 400", resp.StatusCode)
	}

	mresp, err := http.Get(front.URL + "/fabric/members")
	if err != nil {
		t.Fatal(err)
	}
	defer mresp.Body.Close()
	var view struct {
		Members []MemberView `json:"members"`
		Stats   Stats        `json:"stats"`
	}
	if err := json.NewDecoder(mresp.Body).Decode(&view); err != nil {
		t.Fatal(err)
	}
	if len(view.Members) != 1 || view.Members[0].ID != "w9" || view.Members[0].State != "alive" {
		t.Fatalf("members = %+v", view.Members)
	}
	if view.Stats.WorkersTotal != 1 {
		t.Fatalf("stats = %+v", view.Stats)
	}
}

func TestJoinLoopRegistersAndHeartbeats(t *testing.T) {
	c := newTestCoordinator(t, fastConfig())
	front := httptest.NewServer(c.Mount(http.NotFoundHandler()))
	t.Cleanup(front.Close)
	f := newFakeWorker(t, "w1", func(w http.ResponseWriter, r *http.Request) {
		fmt.Fprint(w, okView("w1"))
	})
	ctx, cancel := context.WithCancel(context.Background())
	t.Cleanup(cancel)
	go JoinLoop(ctx, front.URL, JoinInfo{ID: "w1", URL: f.ts.URL, Runners: 1}, 20*time.Millisecond, t.Logf)
	waitFor(t, "join-loop registration", 2*time.Second, func() bool {
		m := c.Members()
		return len(m) == 1 && m[0].ID == "w1"
	})
}

// TestRejoinWhileProbingIsRaceFree re-joins a live member while its prober
// runs, as JoinLoop does every few seconds in every worker deployment. The
// re-join rewrites the member's URL, which the prober reads; run under -race.
func TestRejoinWhileProbingIsRaceFree(t *testing.T) {
	f := newFakeWorker(t, "w1", func(w http.ResponseWriter, r *http.Request) {
		fmt.Fprint(w, okView("w1"))
	})
	c := newTestCoordinator(t, fastConfig(), f)
	for i := 0; i < 20; i++ {
		if err := c.AddWorker(JoinInfo{ID: "w1", URL: f.ts.URL, Runners: 2}); err != nil {
			t.Fatal(err)
		}
		seen := f.probes.Load()
		waitFor(t, "next probe", 2*time.Second, func() bool { return f.probes.Load() > seen })
	}
	if _, err := c.ExecuteRemote(context.Background(), "fp-1", serve.JobSpec{TimeoutMS: 5000}); err != nil {
		t.Fatalf("job after re-joins: %v", err)
	}
}

// blockingWorker answers a job only once release is closed (or the
// dispatch is cancelled), so tests can hold its slots busy.
func blockingWorker(t *testing.T, id string, release <-chan struct{}) *fakeWorker {
	return newFakeWorker(t, id, func(w http.ResponseWriter, r *http.Request) {
		select {
		case <-release:
			fmt.Fprint(w, okView(id))
		case <-r.Context().Done():
		}
	})
}

// oneSlotCoordinator registers each worker with a single dispatch slot.
func oneSlotCoordinator(t *testing.T, workers ...*fakeWorker) *Coordinator {
	t.Helper()
	c := newTestCoordinator(t, fastConfig())
	for _, f := range workers {
		if err := c.AddWorker(JoinInfo{ID: f.id, URL: f.ts.URL, Runners: 1}); err != nil {
			t.Fatal(err)
		}
	}
	return c
}

// keysHomedOn returns n fingerprints whose ring home among ids is home.
func keysHomedOn(t *testing.T, home string, n int, ids ...string) []string {
	t.Helper()
	r := NewRing()
	for _, id := range ids {
		r.Add(id)
	}
	var keys []string
	for i := 0; i < 1000 && len(keys) < n; i++ {
		if k := fmt.Sprintf("fp-%d", i); r.Lookup(k) == home {
			keys = append(keys, k)
		}
	}
	if len(keys) < n {
		t.Fatalf("found %d keys homed on %s in 1000 tries, want %d", len(keys), home, n)
	}
	return keys
}

// waiting reports how many jobs wait for a slot on worker id.
func waiting(c *Coordinator, id string) int {
	for _, m := range c.Members() {
		if m.ID == id {
			return m.Queued
		}
	}
	return -1
}

type remoteAnswer struct {
	rr  *serve.RemoteResult
	err error
}

func submit(c *Coordinator, ctx context.Context, key string) <-chan remoteAnswer {
	out := make(chan remoteAnswer, 1)
	go func() {
		rr, err := c.ExecuteRemote(ctx, key, serve.JobSpec{TimeoutMS: 30_000})
		out <- remoteAnswer{rr, err}
	}()
	return out
}

// TestBusyHomeKeepsAffinity: a second key homed on a worker whose only slot
// is busy waits for that slot rather than running on the idle worker, which
// would have to simulate it without the home's run cache.
func TestBusyHomeKeepsAffinity(t *testing.T) {
	release := make(chan struct{})
	home := blockingWorker(t, "home", release)
	idle := newFakeWorker(t, "idle", func(w http.ResponseWriter, r *http.Request) {
		fmt.Fprint(w, okView("idle"))
	})
	c := oneSlotCoordinator(t, home, idle)
	keys := keysHomedOn(t, "home", 2, "home", "idle")

	first := submit(c, context.Background(), keys[0])
	waitFor(t, "first job in flight on home", 2*time.Second, func() bool { return home.gotJobs.Load() == 1 })
	second := submit(c, context.Background(), keys[1])
	waitFor(t, "second job waiting for home's slot", 2*time.Second, func() bool { return waiting(c, "home") == 1 })
	close(release)

	for i, ch := range []<-chan remoteAnswer{first, second} {
		a := <-ch
		if a.err != nil {
			t.Fatalf("job %d: %v", i, a.err)
		}
		if a.rr.Worker != "home" {
			t.Errorf("job %d ran on %q, want its busy home", i, a.rr.Worker)
		}
	}
	if n := idle.gotJobs.Load(); n != 0 {
		t.Errorf("idle worker got %d jobs homed elsewhere", n)
	}
}

// TestCloseFailsWaitingJob: Close fails both the in-flight job and the job
// waiting for its slot with ErrRemoteUnavailable.
func TestCloseFailsWaitingJob(t *testing.T) {
	w := blockingWorker(t, "w1", make(chan struct{}))
	c := oneSlotCoordinator(t, w)
	running := submit(c, context.Background(), "fp-1")
	waitFor(t, "first job in flight", 2*time.Second, func() bool { return w.gotJobs.Load() == 1 })
	waiter := submit(c, context.Background(), "fp-2")
	waitFor(t, "second job waiting", 2*time.Second, func() bool { return waiting(c, "w1") == 1 })

	c.Close()
	for name, ch := range map[string]<-chan remoteAnswer{"running": running, "waiting": waiter} {
		select {
		case a := <-ch:
			if !errors.Is(a.err, serve.ErrRemoteUnavailable) {
				t.Errorf("%s job: err = %v, want ErrRemoteUnavailable", name, a.err)
			}
		case <-time.After(5 * time.Second):
			t.Fatalf("%s job still blocked after Close", name)
		}
	}
}

// TestCancelWhileWaiting: cancelling a job that waits for a slot returns its
// ctx error at once and leaves no goroutine or waiter behind.
func TestCancelWhileWaiting(t *testing.T) {
	w := blockingWorker(t, "w1", make(chan struct{}))
	c := oneSlotCoordinator(t, w)
	submit(c, context.Background(), "fp-1")
	waitFor(t, "first job in flight", 2*time.Second, func() bool { return w.gotJobs.Load() == 1 })

	base := runtime.NumGoroutine()
	ctx, cancel := context.WithCancel(context.Background())
	waiter := submit(c, ctx, "fp-2")
	waitFor(t, "second job waiting", 2*time.Second, func() bool { return waiting(c, "w1") == 1 })
	cancel()
	select {
	case a := <-waiter:
		if !errors.Is(a.err, context.Canceled) {
			t.Fatalf("err = %v, want context.Canceled", a.err)
		}
	case <-time.After(time.Second):
		t.Fatal("cancelled job still waiting for a slot")
	}
	if n := waiting(c, "w1"); n != 0 {
		t.Errorf("waiters after cancel = %d, want 0", n)
	}
	waitFor(t, "goroutines settle after cancel", 2*time.Second, func() bool {
		return runtime.NumGoroutine() <= base
	})
	if st := c.Stats(); st.Dispatches != 1 {
		t.Errorf("dispatches = %d, want 1 (the cancelled job never posted)", st.Dispatches)
	}
}
