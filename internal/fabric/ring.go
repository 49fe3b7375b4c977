package fabric

import (
	"hash/fnv"
	"sort"
	"strconv"
	"sync"
)

// Ring is a consistent-hash ring mapping run-cache fingerprints to worker
// IDs. Each worker contributes vnodes virtual points so load spreads evenly;
// removing a worker moves only that worker's arc to its successors, which is
// what keeps cache affinity intact across worker deaths: every key that was
// NOT homed on the dead worker keeps routing to the node that already holds
// its cached result.
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
// balances within a few percent, cheap enough that membership changes are
// trivial.
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
// no-op, so probation re-entries are idempotent.
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

// Remove deletes a worker's virtual points (worker death or probation); a
// missing worker is a no-op.
func (r *Ring) Remove(id string) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, ok := r.ids[id]; !ok {
		return
	}
	delete(r.ids, id)
	kept := r.points[:0]
	for _, p := range r.points {
		if p.id != id {
			kept = append(kept, p)
		}
	}
	r.points = kept
}

// Contains reports whether the worker is currently on the ring.
func (r *Ring) Contains(id string) bool {
	r.mu.RLock()
	defer r.mu.RUnlock()
	_, ok := r.ids[id]
	return ok
}

// Len returns the number of workers on the ring.
func (r *Ring) Len() int {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return len(r.ids)
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
// falls to as earlier ones die.
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
