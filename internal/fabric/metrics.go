package fabric

import (
	"encoding/json"
	"net/http"
	"sort"
	"time"

	"loopfrog/internal/telemetry"
)

// Stats is an atomic snapshot of the coordinator's counters, for tests and
// the /fabric/members debug view.
type Stats struct {
	Jobs       uint64 `json:"jobs"`
	Dispatches uint64 `json:"dispatches"`
	// Steals, Hedges and HedgesWasted always read 0: the coordinator neither
	// steals nor hedges. They stay only because perfbench still reports them;
	// a later benchmark change removes them.
	Steals       uint64 `json:"steals"`
	Hedges       uint64 `json:"hedges"`
	HedgesWasted uint64 `json:"hedges_wasted"`
	Retries      uint64 `json:"retries"`
	Reroutes     uint64 `json:"reroutes"`
	Requeues     uint64 `json:"requeues"`
	WorkersDead  uint64 `json:"workers_dead"`
	PairsBlocked uint64 `json:"pairs_blocked"`
	Degradations uint64 `json:"degradations"`
	WorkersLive  int    `json:"workers_live"`
	WorkersTotal int    `json:"workers_total"`
}

// Stats returns the current counter snapshot.
func (c *Coordinator) Stats() Stats {
	s := Stats{
		Jobs:         c.m.jobs.Load(),
		Dispatches:   c.m.dispatches.Load(),
		Retries:      c.m.retries.Load(),
		Reroutes:     c.m.reroutes.Load(),
		Requeues:     c.m.requeues.Load(),
		WorkersDead:  c.m.workersDead.Load(),
		PairsBlocked: c.m.pairsBlocked.Load(),
		Degradations: c.m.degradations.Load(),
	}
	c.mu.Lock()
	s.WorkersTotal = len(c.members)
	for _, m := range c.members {
		if m.det.State() == StateAlive {
			s.WorkersLive++
		}
	}
	c.mu.Unlock()
	return s
}

// RegisterMetrics publishes the fabric.* gauge family; internal/serve calls
// this through its Remote hook so the coordinator's counters ride the same
// /metrics endpoint as everything else.
func (c *Coordinator) RegisterMetrics(reg *telemetry.Registry) {
	gauge := func(name string, f func(Stats) float64) {
		reg.RegisterGauge(name, func() float64 { return f(c.Stats()) })
	}
	gauge("fabric.Jobs", func(s Stats) float64 { return float64(s.Jobs) })
	gauge("fabric.Dispatches", func(s Stats) float64 { return float64(s.Dispatches) })
	gauge("fabric.Retries", func(s Stats) float64 { return float64(s.Retries) })
	gauge("fabric.Reroutes", func(s Stats) float64 { return float64(s.Reroutes) })
	gauge("fabric.Requeues", func(s Stats) float64 { return float64(s.Requeues) })
	gauge("fabric.WorkersDead", func(s Stats) float64 { return float64(s.WorkersDead) })
	gauge("fabric.WorkersLive", func(s Stats) float64 { return float64(s.WorkersLive) })
	gauge("fabric.WorkersTotal", func(s Stats) float64 { return float64(s.WorkersTotal) })
	gauge("fabric.QuarantinedPairs", func(s Stats) float64 { return float64(s.PairsBlocked) })
	gauge("fabric.Degradations", func(s Stats) float64 { return float64(s.Degradations) })
}

// MemberView is one worker's externally visible state on /fabric/members.
type MemberView struct {
	ID       string `json:"id"`
	URL      string `json:"url"`
	State    string `json:"state"`
	SilentMS int64  `json:"silent_ms"` // time since it last answered a probe
	Slots    int    `json:"slots"`
	Inflight int    `json:"inflight"`
	Queued   int    `json:"queued"` // jobs waiting for one of its slots
	JoinedAt string `json:"joined_at"`
}

// Members returns the worker table sorted by ID.
func (c *Coordinator) Members() []MemberView {
	now := time.Now()
	c.mu.Lock()
	out := make([]MemberView, 0, len(c.members))
	for _, m := range c.members {
		out = append(out, MemberView{
			ID:       m.id,
			URL:      m.url,
			State:    m.det.State().String(),
			SilentMS: m.det.Silence(now).Milliseconds(),
			Slots:    m.slots,
			Inflight: len(m.inflight),
			Queued:   m.waiting,
			JoinedAt: m.joined.UTC().Format(time.RFC3339),
		})
	}
	c.mu.Unlock()
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// Mount wraps an http.Handler (the serve API) with the fabric control
// endpoints:
//
//	POST /fabric/join     worker registration / heartbeat (JoinInfo body)
//	GET  /fabric/members  worker table with detector state and slot waiters
func (c *Coordinator) Mount(next http.Handler) http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/fabric/join", func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodPost {
			http.Error(w, `{"error":"POST only"}`, http.StatusMethodNotAllowed)
			return
		}
		var info JoinInfo
		if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, 1<<16)).Decode(&info); err != nil {
			writeFabricJSON(w, http.StatusBadRequest, map[string]string{"error": "bad join body: " + err.Error()})
			return
		}
		if err := c.AddWorker(info); err != nil {
			writeFabricJSON(w, http.StatusBadRequest, map[string]string{"error": err.Error()})
			return
		}
		writeFabricJSON(w, http.StatusOK, map[string]string{"status": "ok", "version": Version})
	})
	mux.HandleFunc("/fabric/members", func(w http.ResponseWriter, r *http.Request) {
		writeFabricJSON(w, http.StatusOK, map[string]any{
			"members": c.Members(),
			"stats":   c.Stats(),
		})
	})
	mux.Handle("/", next)
	return mux
}

func writeFabricJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v)
}
