package fabric

import (
	"fmt"
	"testing"
)

func keysFor(n int) []string {
	keys := make([]string, n)
	for i := range keys {
		keys[i] = fmt.Sprintf("fingerprint-%04x", i)
	}
	return keys
}

func TestRingLookupDeterministicAndDistinct(t *testing.T) {
	r := NewRing()
	for _, id := range []string{"w1", "w2", "w3"} {
		r.Add(id)
	}
	for _, key := range keysFor(64) {
		home := r.Lookup(key)
		if home == "" {
			t.Fatalf("Lookup(%q) empty on populated ring", key)
		}
		if again := r.Lookup(key); again != home {
			t.Fatalf("Lookup(%q) unstable: %q then %q", key, home, again)
		}
		order := r.LookupN(key, 3)
		if len(order) != 3 || order[0] != home {
			t.Fatalf("LookupN(%q, 3) = %v, want 3 distinct starting at %q", key, order, home)
		}
		seen := map[string]bool{}
		for _, id := range order {
			if seen[id] {
				t.Fatalf("LookupN(%q) repeated %q: %v", key, id, order)
			}
			seen[id] = true
		}
	}
}

func TestRingRemovalMovesOnlyTheDeadArc(t *testing.T) {
	r := NewRing()
	for _, id := range []string{"w1", "w2", "w3"} {
		r.Add(id)
	}
	keys := keysFor(2000)
	before := make(map[string]string, len(keys))
	for _, key := range keys {
		before[key] = r.Lookup(key)
	}
	r.Remove("w2")
	moved := 0
	for _, key := range keys {
		after := r.Lookup(key)
		switch {
		case before[key] == "w2":
			if after == "w2" {
				t.Fatalf("key %q still routes to removed worker", key)
			}
			moved++
		case after != before[key]:
			t.Fatalf("key %q was homed on surviving %q but moved to %q — removal must only move the dead arc", key, before[key], after)
		}
	}
	if moved == 0 {
		t.Fatal("no keys were homed on w2; distribution is broken")
	}
}

func TestRingBalance(t *testing.T) {
	r := NewRing()
	workers := []string{"w1", "w2", "w3"}
	for _, id := range workers {
		r.Add(id)
	}
	counts := map[string]int{}
	keys := keysFor(9000)
	for _, key := range keys {
		counts[r.Lookup(key)]++
	}
	for _, id := range workers {
		share := float64(counts[id]) / float64(len(keys))
		if share < 0.20 || share > 0.47 {
			t.Errorf("worker %s holds %.0f%% of keys; want roughly a third (counts %v)", id, share*100, counts)
		}
	}
}

func TestRingAddIsIdempotentAndRejoinRestores(t *testing.T) {
	r := NewRing()
	r.Add("w1")
	r.Add("w2")
	home := r.Lookup("some-key")
	r.Add("w1") // duplicate
	if got := r.Lookup("some-key"); got != home {
		t.Fatalf("duplicate Add changed routing: %q -> %q", home, got)
	}
	r.Remove("w1")
	r.Add("w1") // rejoin
	if got := r.Lookup("some-key"); got != home {
		t.Fatalf("remove+rejoin changed routing: %q -> %q", home, got)
	}
	if n := r.Len(); n != 2 {
		t.Fatalf("Len = %d, want 2", n)
	}
}
