package fabric

import (
	"hash/fnv"
	"sort"
	"strconv"
	"sync"
)

// Ring is a consistent-hash ring mapping run-cache fingerprints to worker
// IDs. Each worker contributes vnodes virtual points so load spreads evenly.
// Membership is fixed: a worker stays on the ring for life, and the
// coordinator skips workers that are not Alive when it walks a key's
// preference order. Skipping a worker moves only the keys homed on it, to
// their next workers in ring order, which is what keeps cache affinity
// intact across worker deaths: every key that was NOT homed on the dead
// worker keeps routing to the node that already holds its cached result.
//
// Ring is safe for concurrent use. Lookups on an empty ring return nothing.
type Ring struct {
	mu     sync.RWMutex
	points []ringPoint // sorted by hash
	ids    map[string]struct{}
}

type ringPoint struct {
	hash uint64
	id   string
}

// vnodes is the per-worker virtual-node count: enough that a 3-node ring
// balances within a few percent, cheap enough that a join is trivial.
const vnodes = 64

// NewRing returns an empty ring.
func NewRing() *Ring {
	return &Ring{ids: make(map[string]struct{})}
}

func ringHash(s string) uint64 {
	h := fnv.New64a()
	h.Write([]byte(s))
	// fnv-1a clusters on short, similar inputs (worker vnode labels differ
	// only in a numeric suffix); a splitmix64 finalizer spreads the points.
	z := h.Sum64() + 0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// Add inserts a worker's virtual points; adding an existing worker is a
// no-op.
func (r *Ring) Add(id string) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, ok := r.ids[id]; ok {
		return
	}
	r.ids[id] = struct{}{}
	for v := 0; v < vnodes; v++ {
		r.points = append(r.points, ringPoint{ringHash(id + "#" + strconv.Itoa(v)), id})
	}
	sort.Slice(r.points, func(i, j int) bool { return r.points[i].hash < r.points[j].hash })
}

// Lookup returns the key's home worker, or "" on an empty ring.
func (r *Ring) Lookup(key string) string {
	ids := r.LookupN(key, 1)
	if len(ids) == 0 {
		return ""
	}
	return ids[0]
}

// LookupN returns up to n distinct workers in ring order starting at the
// key's home: the preference order for placement and failover. The
// first entry is the home node; later entries are the nodes the key's arc
// falls to while earlier ones are not Alive.
func (r *Ring) LookupN(key string, n int) []string {
	r.mu.RLock()
	defer r.mu.RUnlock()
	if len(r.points) == 0 || n <= 0 {
		return nil
	}
	if n > len(r.ids) {
		n = len(r.ids)
	}
	h := ringHash(key)
	start := sort.Search(len(r.points), func(i int) bool { return r.points[i].hash >= h })
	out := make([]string, 0, n)
	seen := make(map[string]struct{}, n)
	for i := 0; i < len(r.points) && len(out) < n; i++ {
		p := r.points[(start+i)%len(r.points)]
		if _, dup := seen[p.id]; dup {
			continue
		}
		seen[p.id] = struct{}{}
		out = append(out, p.id)
	}
	return out
}
