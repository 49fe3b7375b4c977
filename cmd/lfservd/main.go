// Command lfservd is the LoopFrog simulation-as-a-service daemon: an
// HTTP/JSON front end over the sim.Harness worker pool with bounded
// admission queues, interactive/sweep priority lanes, a mandatory
// hint-legality preflight, an LRU-bounded run-cache, per-job deadlines, and
// server-sent-event progress streaming. See the Serving section of README.md
// for the API and DESIGN.md for the admission-control design.
//
// Usage:
//
//	lfservd [-addr :8080] [-runners N] [-queue N] [-workers N]
//	        [-cache N] [-timeout d] [-max-timeout d] [-pprof addr]
//
// -pprof opts into Go's net/http/pprof profiling handlers on a separate
// listener (e.g. -pprof localhost:6060 serves /debug/pprof/ there). The
// profiling surface never shares the service port, so the job API can be
// exposed without also exposing heap and CPU profiles.
//
// Fabric mode (see internal/fabric and the "Distributed serving" section of
// README.md) shards sweeps across nodes:
//
//	lfservd -coordinator [-fabric-workers name=url,...] [-chaos-fabric spec]
//	lfservd -worker -join http://coordinator:8080 [-name w1] [-advertise url]
//
// A coordinator routes jobs to registered workers over a consistent-hash
// ring keyed on the run-cache fingerprint, with health probing, retries with
// backoff, and requeue on worker death; with no live workers it degrades to
// plain local execution. A worker is a normal daemon that additionally
// registers with (and heartbeats to) its coordinator. -chaos-fabric injects
// seeded worker kills/partitions/delays at the coordinator's transport for
// fault drills ("all" or "kill=P,partition=P,delay=P", seeded by
// -chaos-seed).
//
// SIGINT/SIGTERM starts a graceful drain: admission stops (healthz flips to
// 503), every admitted job completes, then the process exits. A second
// signal — or the -drain-timeout budget expiring — aborts the drain by
// cancelling the remaining jobs.
//
// Load mode (-load N) does not listen on -addr: it starts an in-process
// server on a loopback port, drives it with N concurrent clients submitting
// a mixed cached/uncached quickstart workload for -load-duration, verifies
// the saturation contract (every non-429 response succeeds, every 429
// carries Retry-After), and writes a BENCH_serve.json-style report with the
// sustained RPS and latency percentiles to -load-out.
//
// Exit status: 0 clean shutdown or passing load run, 1 failure, 2 usage.
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"loopfrog/internal/experiments"
	"loopfrog/internal/fabric"
	"loopfrog/internal/serve"
)

func main() {
	addr := flag.String("addr", ":8080", "listen address")
	runners := flag.Int("runners", 0, "concurrent job executors (0 = GOMAXPROCS, max 8)")
	queue := flag.Int("queue", 0, "admission queue depth per priority lane (0 = 64)")
	workers := flag.Int("workers", 0, "sim.Harness worker pool size (0 = all cores)")
	cache := flag.Int("cache", 0, "run-cache LRU capacity (0 = default, <0 = unbounded)")
	timeout := flag.Duration("timeout", 0, "default per-job deadline (0 = 60s)")
	maxTimeout := flag.Duration("max-timeout", 0, "cap on requested per-job deadlines (0 = 5m)")
	drainTimeout := flag.Duration("drain-timeout", 30*time.Second, "graceful drain budget on shutdown")
	load := flag.Int("load", 0, "run the load harness with N concurrent clients instead of serving")
	loadDuration := flag.Duration("load-duration", 10*time.Second, "load harness run time")
	loadOut := flag.String("load-out", "BENCH_serve.json", "load harness report path")
	loadProg := flag.String("load-prog", "examples/quickstart/asm/quickstart.s", "assembly file the load harness submits")
	pprofAddr := flag.String("pprof", "", "serve net/http/pprof on this separate address (empty = disabled)")
	coordinator := flag.Bool("coordinator", false, "run as fabric coordinator: route jobs to registered workers")
	fabricWorkers := flag.String("fabric-workers", "", "static worker list for -coordinator: comma-separated name=url (or bare urls)")
	worker := flag.Bool("worker", false, "run as fabric worker: serve jobs and register with -join")
	join := flag.String("join", "", "coordinator base URL a -worker registers with")
	name := flag.String("name", "", "this worker's fabric name (default host:port)")
	advertise := flag.String("advertise", "", "base URL the coordinator reaches this worker at (default http://127.0.0.1<addr>)")
	chaosFabric := flag.String("chaos-fabric", "", "coordinator chaos spec: \"all\" or kill=P,partition=P,delay=P (empty = off)")
	chaosSeed := flag.Int64("chaos-seed", 1, "base seed for -chaos-fabric's deterministic streams")
	flag.Parse()

	cfg := serve.Config{
		Runners:        *runners,
		QueueDepth:     *queue,
		Workers:        *workers,
		CacheCapacity:  *cache,
		DefaultTimeout: *timeout,
		MaxTimeout:     *maxTimeout,
	}

	if *load > 0 {
		if err := runLoad(cfg, *load, *loadDuration, *loadOut, *loadProg); err != nil {
			fmt.Fprintln(os.Stderr, "lfservd:", err)
			os.Exit(1)
		}
		return
	}
	if *coordinator && *worker {
		fmt.Fprintln(os.Stderr, "lfservd: -coordinator and -worker are mutually exclusive")
		os.Exit(2)
	}
	if *worker && *join == "" {
		fmt.Fprintln(os.Stderr, "lfservd: -worker requires -join")
		os.Exit(2)
	}

	if *pprofAddr != "" {
		// An explicit mux with only the pprof handlers: importing
		// net/http/pprof registers on http.DefaultServeMux, which this
		// process never serves, so the handlers are wired by hand and the
		// profiling listener exposes nothing else.
		pm := http.NewServeMux()
		pm.HandleFunc("/debug/pprof/", pprof.Index)
		pm.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		pm.HandleFunc("/debug/pprof/profile", pprof.Profile)
		pm.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		pm.HandleFunc("/debug/pprof/trace", pprof.Trace)
		go func(addr string) {
			fmt.Printf("lfservd: pprof on %s/debug/pprof/\n", addr)
			if err := http.ListenAndServe(addr, pm); err != nil {
				fmt.Fprintln(os.Stderr, "lfservd: pprof:", err)
			}
		}(*pprofAddr)
	}

	var coord *fabric.Coordinator
	if *coordinator {
		fcfg := fabric.Config{}
		if *chaosFabric != "" {
			chaos, err := fabric.ParseChaos(*chaosFabric, *chaosSeed)
			if err != nil {
				fmt.Fprintln(os.Stderr, "lfservd:", err)
				os.Exit(2)
			}
			fcfg.WrapTransport = chaos.WrapTransport
			fmt.Printf("lfservd: fabric chaos armed: %s seed=%d\n", *chaosFabric, *chaosSeed)
		}
		coord = fabric.NewCoordinator(fcfg)
		for _, entry := range strings.Split(*fabricWorkers, ",") {
			entry = strings.TrimSpace(entry)
			if entry == "" {
				continue
			}
			wname, url, ok := strings.Cut(entry, "=")
			if !ok {
				url = wname
				wname = strings.TrimPrefix(strings.TrimPrefix(url, "http://"), "https://")
			}
			if err := coord.AddWorker(fabric.JoinInfo{ID: wname, URL: url}); err != nil {
				fmt.Fprintln(os.Stderr, "lfservd:", err)
				os.Exit(2)
			}
		}
		cfg.Remote = coord
	}

	s := serve.New(cfg)
	handler := s.Handler()
	if coord != nil {
		handler = coord.Mount(handler)
	}
	httpSrv := &http.Server{Addr: *addr, Handler: handler}
	errc := make(chan error, 1)
	go func() {
		fmt.Printf("lfservd: serving on %s\n", *addr)
		errc <- httpSrv.ListenAndServe()
	}()

	joinCtx, joinCancel := context.WithCancel(context.Background())
	defer joinCancel()
	if *worker {
		info := fabric.JoinInfo{ID: *name, URL: *advertise, Runners: *runners}
		if info.URL == "" {
			host := *addr
			if strings.HasPrefix(host, ":") {
				host = "127.0.0.1" + host
			}
			info.URL = "http://" + host
		}
		if info.ID == "" {
			info.ID = strings.TrimPrefix(strings.TrimPrefix(info.URL, "http://"), "https://")
		}
		go fabric.JoinLoop(joinCtx, *join, info, 5*time.Second, func(format string, args ...any) {
			fmt.Printf("lfservd: "+format+"\n", args...)
		})
	}

	sigc := make(chan os.Signal, 2)
	signal.Notify(sigc, syscall.SIGINT, syscall.SIGTERM)
	select {
	case err := <-errc:
		fmt.Fprintln(os.Stderr, "lfservd:", err)
		os.Exit(1)
	case sig := <-sigc:
		fmt.Printf("lfservd: %s, draining (up to %s; signal again to abort)\n", sig, *drainTimeout)
	}

	ctx, cancel := context.WithTimeout(context.Background(), *drainTimeout)
	go func() {
		<-sigc
		cancel()
	}()
	joinCancel()
	if err := s.Shutdown(ctx); err != nil {
		fmt.Fprintln(os.Stderr, "lfservd:", err)
	}
	if coord != nil {
		coord.Close()
	}
	shutdownCtx, cancel2 := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel2()
	_ = httpSrv.Shutdown(shutdownCtx)
	cancel()
	fmt.Println("lfservd: drained")
}

// loadReport is the BENCH_serve.json schema. Meta carries the date, host,
// toolchain and reproducing command, as in every other BENCH record.
type loadReport struct {
	Description  string           `json:"description"`
	Meta         experiments.Meta `json:"meta"`
	Clients      int              `json:"clients"`
	DurationSec  float64          `json:"duration_sec"`
	Requests     uint64           `json:"requests"`
	Succeeded    uint64           `json:"succeeded"`
	Rejected429  uint64           `json:"rejected_429"`
	CacheHitRate float64          `json:"cache_hit_rate"`
	RPS          float64          `json:"sustained_rps"`
	P50Ms        float64          `json:"p50_ms"`
	P99Ms        float64          `json:"p99_ms"`
	Note         string           `json:"note"`
}

// runLoad drives an in-process server at saturation with a mixed
// cached/uncached workload and enforces the acceptance contract.
func runLoad(cfg serve.Config, clients int, duration time.Duration, outPath, progPath string) error {
	src, err := os.ReadFile(progPath)
	if err != nil {
		return fmt.Errorf("load program: %w", err)
	}
	s := serve.New(cfg)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	httpSrv := &http.Server{Handler: s.Handler()}
	go httpSrv.Serve(ln)
	base := "http://" + ln.Addr().String()

	var (
		requests, succeeded, rejected, failures atomic.Uint64
		latMu                                   sync.Mutex
		latencies                               []time.Duration
		firstErr                                atomic.Value
	)
	fail := func(format string, args ...any) {
		err := fmt.Errorf(format, args...)
		firstErr.CompareAndSwap(nil, err)
		failures.Add(1)
	}

	client := &http.Client{Timeout: 2 * time.Minute}
	deadline := time.Now().Add(duration)
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := 0; time.Now().Before(deadline); i++ {
				// Even clients resubmit the same job (cache hits / flight
				// joins); odd clients vary max_cycles so every request is a
				// distinct cache key and really simulates.
				spec := map[string]any{
					"name":     "quickstart-load",
					"asm":      string(src),
					"ab":       true,
					"priority": "sweep",
				}
				if c%2 == 1 {
					spec["max_cycles"] = 1_000_000 + int64(c)*10_000 + int64(i)
					spec["priority"] = "interactive"
				}
				body, _ := json.Marshal(spec)
				start := time.Now()
				resp, err := client.Post(base+"/v1/jobs", "application/json", bytes.NewReader(body))
				if err != nil {
					fail("POST /v1/jobs: %v", err)
					return
				}
				requests.Add(1)
				payload, _ := io.ReadAll(resp.Body)
				resp.Body.Close()
				switch resp.StatusCode {
				case http.StatusOK:
					succeeded.Add(1)
					latMu.Lock()
					latencies = append(latencies, time.Since(start))
					latMu.Unlock()
					var out struct {
						Result *struct {
							Speedup float64 `json:"speedup"`
						} `json:"result"`
					}
					if err := json.Unmarshal(payload, &out); err != nil || out.Result == nil {
						fail("bad 200 body: %v: %s", err, payload)
					}
				case http.StatusTooManyRequests:
					rejected.Add(1)
					if resp.Header.Get("Retry-After") == "" {
						fail("429 without Retry-After")
					}
					time.Sleep(50 * time.Millisecond)
				default:
					fail("unexpected status %d: %s", resp.StatusCode, payload)
				}
			}
		}(c)
	}
	startWall := time.Now()
	wg.Wait()
	wall := time.Since(startWall)
	if wall > duration {
		wall = duration + (wall-duration)/2 // tail requests ran past the deadline
	}

	st := s.Harness().Stats()
	drainCtx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := s.Shutdown(drainCtx); err != nil {
		return fmt.Errorf("drain: %w", err)
	}
	_ = httpSrv.Close()

	latMu.Lock()
	sort.Slice(latencies, func(i, j int) bool { return latencies[i] < latencies[j] })
	var p50, p99 float64
	if n := len(latencies); n > 0 {
		p50 = float64(latencies[n/2].Milliseconds())
		p99 = float64(latencies[int(float64(n-1)*0.99)].Milliseconds())
	}
	latMu.Unlock()

	served := st.CacheHits + st.CacheFlightJoins + st.CacheMisses
	hitRate := 0.0
	if served > 0 {
		hitRate = float64(st.CacheHits+st.CacheFlightJoins) / float64(served)
	}
	rep := loadReport{
		Description: fmt.Sprintf("lfservd sustained load: %d concurrent clients, mixed cached/uncached quickstart AB jobs, %s", clients, duration),
		Meta:        experiments.NewMeta(fmt.Sprintf("lfservd -load %d -load-duration %s", clients, duration)),
		Clients:     clients,
		DurationSec: wall.Seconds(),
		Requests:    requests.Load(),
		Succeeded:   succeeded.Load(),
		Rejected429: rejected.Load(),
		CacheHitRate: func() float64 {
			return float64(int(hitRate*1000)) / 1000
		}(),
		RPS:   float64(succeeded.Load()) / wall.Seconds(),
		P50Ms: p50,
		P99Ms: p99,
		Note:  "every non-429 response must be a 200 with a speedup; every 429 must carry Retry-After; the server must drain cleanly after the run",
	}
	b, _ := json.MarshalIndent(rep, "", "  ")
	b = append(b, '\n')
	if err := os.WriteFile(outPath, b, 0o644); err != nil {
		return err
	}
	fmt.Printf("lfservd load: %d requests, %d ok, %d rejected (429), %.1f req/s, p50 %.0fms p99 %.0fms, cache hit rate %.2f -> %s\n",
		rep.Requests, rep.Succeeded, rep.Rejected429, rep.RPS, rep.P50Ms, rep.P99Ms, hitRate, outPath)

	if failures.Load() > 0 {
		return fmt.Errorf("load contract violated (%d failures; first: %v)", failures.Load(), firstErr.Load())
	}
	if succeeded.Load() == 0 {
		return errors.New("load run completed zero jobs")
	}
	return nil
}
