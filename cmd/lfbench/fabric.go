package main

// The -fabric study: distributed sweep serving on an in-process 3-node
// fabric versus a single-node daemon. Both sides run identical job lists —
// a sweep of distinct loop programs, each submitted several times — through
// real HTTP servers, so the comparison includes every serving-layer cost
// (admission, lint preflight, dispatch, relay).
//
// Two phases, one BENCH_fabric.json:
//
//   - capacity: per-node run-cache capacity is sized below the sweep's
//     working set. The single node LRU-thrashes (every repeat re-simulates);
//     the fabric's consistent-hash routing partitions the sweep so each
//     node's share fits its cache and repeats stay resident. This is the
//     aggregate-cache throughput win, and it holds even on one core.
//   - affinity: caches unbounded on both sides. Shows the fabric's hit rate
//     matches single-node — routing on the fingerprint loses (almost) no
//     cache efficiency to failover.

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"runtime"
	"sync"
	"time"

	"loopfrog/internal/experiments"
	"loopfrog/internal/fabric"
	"loopfrog/internal/serve"
)

const fabricNodes = 3

// fabricJob is one sweep lane: a loop program whose trip count makes the
// simulation long enough that serving overhead is noise.
func fabricJob(i int) map[string]any {
	trips := 40000 + 4000*i
	asm := fmt.Sprintf(`
main:   li   t0, 0
        li   t1, %d
loop:   addi t0, t0, 1
        blt  t0, t1, loop
        halt
`, trips)
	return map[string]any{
		"name":     fmt.Sprintf("fabric-sweep-%d", i),
		"asm":      asm,
		"priority": "sweep",
	}
}

// fabricSweep submits every job with bounded client concurrency and returns
// the wall-clock time to drain the whole list.
func fabricSweep(url string, jobs []map[string]any) (time.Duration, error) {
	var (
		wg       sync.WaitGroup
		mu       sync.Mutex
		firstErr error
	)
	sem := make(chan struct{}, 8)
	start := time.Now()
	for _, spec := range jobs {
		body, err := json.Marshal(spec)
		if err != nil {
			return 0, err
		}
		wg.Add(1)
		sem <- struct{}{}
		go func(name string, body []byte) {
			defer wg.Done()
			defer func() { <-sem }()
			resp, err := http.Post(url+"/v1/jobs", "application/json", bytes.NewReader(body))
			if err == nil {
				var v struct {
					Status string `json:"status"`
					Error  string `json:"error"`
				}
				jerr := json.NewDecoder(resp.Body).Decode(&v)
				resp.Body.Close()
				switch {
				case jerr != nil:
					err = jerr
				case resp.StatusCode != http.StatusOK || v.Status != "done":
					err = fmt.Errorf("%s: status %d job %q error %q", name, resp.StatusCode, v.Status, v.Error)
				}
			}
			if err != nil {
				mu.Lock()
				if firstErr == nil {
					firstErr = err
				}
				mu.Unlock()
			}
		}(spec["name"].(string), body)
	}
	wg.Wait()
	return time.Since(start), firstErr
}

// fabricSide is one measured topology within a phase.
type fabricSide struct {
	Seconds      float64 `json:"seconds"`
	JobsPerSec   float64 `json:"jobs_per_sec"`
	CacheHitRate float64 `json:"cache_hit_rate"`
}

type fabricPhase struct {
	CachePerNode int          `json:"cache_entries_per_node"` // 0 = unbounded
	Single       fabricSide   `json:"single"`
	Fabric       fabricSide   `json:"fabric"`
	Speedup      float64      `json:"speedup"`
	Stats        fabric.Stats `json:"fabric_stats"`
}

type fabricReport struct {
	Schema   string           `json:"schema"`
	Meta     experiments.Meta `json:"meta"`
	Nodes    int              `json:"nodes"`
	Sweeps   int              `json:"sweep_lanes"`
	Repeats  int              `json:"repeats"`
	Jobs     int              `json:"jobs"`
	Capacity fabricPhase      `json:"capacity"`
	Affinity fabricPhase      `json:"affinity"`
	Speedup  float64          `json:"speedup"` // the capacity phase's headline number
}

func hitRate(hits, misses uint64) float64 {
	if hits+misses == 0 {
		return 0
	}
	return float64(hits) / float64(hits+misses)
}

// runFabricPhase measures one cache configuration on both topologies.
// cacheCap <= 0 means unbounded.
func runFabricPhase(jobs []map[string]any, cacheCap int) (fabricPhase, error) {
	serveCache := cacheCap
	if serveCache <= 0 {
		serveCache = -1 // serve.Config: < 0 disables the bound
	}
	ph := fabricPhase{CachePerNode: cacheCap}

	single := serve.New(serve.Config{Runners: 1, Workers: 1, CacheCapacity: serveCache})
	sts := httptest.NewServer(single.Handler())
	singleDur, err := fabricSweep(sts.URL, jobs)
	singleHits, singleMisses := single.Harness().Cache.Hits(), single.Harness().Cache.Misses()
	sts.Close()
	if err != nil {
		return ph, err
	}

	type node struct {
		srv *serve.Server
		ts  *httptest.Server
	}
	var nodes []node
	// All nodes share this process's CPUs, so probe round-trips inflate under
	// sim load: a long probe interval softens the failure detector, which
	// counts silence in intervals (probation after 6 s, death after 16 s).
	coord := fabric.NewCoordinator(fabric.Config{
		ProbeInterval: 2 * time.Second,
		ProbeTimeout:  10 * time.Second,
	})
	for i := 0; i < fabricNodes; i++ {
		n := node{srv: serve.New(serve.Config{Runners: 1, Workers: 1, CacheCapacity: serveCache})}
		n.ts = httptest.NewServer(n.srv.Handler())
		if err := coord.AddWorker(fabric.JoinInfo{ID: fmt.Sprintf("w%d", i), URL: n.ts.URL, Runners: 1}); err != nil {
			return ph, err
		}
		nodes = append(nodes, n)
	}
	front := serve.New(serve.Config{Runners: 8, Workers: 1, Remote: coord})
	fts := httptest.NewServer(coord.Mount(front.Handler()))
	fabricDur, err := fabricSweep(fts.URL, jobs)
	ph.Stats = coord.Stats()
	var fabHits, fabMisses uint64
	for _, n := range nodes {
		fabHits += n.srv.Harness().Cache.Hits()
		fabMisses += n.srv.Harness().Cache.Misses()
	}
	fts.Close()
	coord.Close()
	for _, n := range nodes {
		n.ts.Close()
	}
	if err != nil {
		return ph, err
	}

	nJobs := len(jobs)
	ph.Single = fabricSide{
		Seconds:      singleDur.Seconds(),
		JobsPerSec:   float64(nJobs) / singleDur.Seconds(),
		CacheHitRate: hitRate(singleHits, singleMisses),
	}
	ph.Fabric = fabricSide{
		Seconds:      fabricDur.Seconds(),
		JobsPerSec:   float64(nJobs) / fabricDur.Seconds(),
		CacheHitRate: hitRate(fabHits, fabMisses),
	}
	ph.Speedup = ph.Fabric.JobsPerSec / ph.Single.JobsPerSec
	return ph, nil
}

func printFabricPhase(name string, ph fabricPhase) {
	capDesc := "unbounded cache"
	if ph.CachePerNode > 0 {
		capDesc = fmt.Sprintf("%d cache entries/node", ph.CachePerNode)
	}
	fmt.Printf("%s (%s):\n", name, capDesc)
	fmt.Printf("  single node:   %6.2fs  %5.1f jobs/s  hit rate %.2f\n",
		ph.Single.Seconds, ph.Single.JobsPerSec, ph.Single.CacheHitRate)
	fmt.Printf("  %d-node fabric: %6.2fs  %5.1f jobs/s  hit rate %.2f  -> %.2fx\n",
		fabricNodes, ph.Fabric.Seconds, ph.Fabric.JobsPerSec, ph.Fabric.CacheHitRate, ph.Speedup)
	fmt.Printf("  fabric stats: %d dispatches, %d retries, %d requeues\n",
		ph.Stats.Dispatches, ph.Stats.Retries, ph.Stats.Requeues)
}

// runFabric measures the sweep on both topologies and writes jsonPath.
// Reports false on any failure so main can exit non-zero.
func runFabric(jsonPath string, lanes, repeats int) bool {
	fail := func(err error) bool {
		fmt.Fprintln(os.Stderr, "lfbench: fabric:", err)
		return false
	}
	jobs := make([]map[string]any, 0, lanes*repeats)
	for r := 0; r < repeats; r++ {
		for i := 0; i < lanes; i++ {
			jobs = append(jobs, fabricJob(i))
		}
	}
	fmt.Printf("fabric study: %d sweep lanes x %d repeats = %d jobs, %d worker nodes, %d cores\n",
		lanes, repeats, len(jobs), fabricNodes, runtime.GOMAXPROCS(0))

	// The capacity phase sizes each node's cache below the sweep working set
	// (but above a 3-way partition's share of it): the aggregate distributed
	// cache is the resource being measured.
	capacity, err := runFabricPhase(jobs, lanes/2)
	if err != nil {
		return fail(err)
	}
	printFabricPhase("capacity", capacity)

	affinity, err := runFabricPhase(jobs, 0)
	if err != nil {
		return fail(err)
	}
	printFabricPhase("affinity", affinity)

	rep := fabricReport{
		Schema:   "lfbench/fabric/v1",
		Meta:     experiments.NewMeta("lfbench -fabric -fabricjson " + jsonPath),
		Nodes:    fabricNodes,
		Sweeps:   lanes,
		Repeats:  repeats,
		Jobs:     len(jobs),
		Capacity: capacity,
		Affinity: affinity,
		Speedup:  capacity.Speedup,
	}
	return writeBench(jsonPath, rep)
}
