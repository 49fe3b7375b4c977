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
// Exit status: 0 clean shutdown, 1 failure, 2 usage.
package main

import (
	"context"
	"flag"
	"fmt"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

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
