package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"slices"
	"testing"
)

func marshalList(t *testing.T, seed int64, repeatAll bool) []byte {
	t.Helper()
	items, err := serveList(seed, repeatAll)
	if err != nil {
		t.Fatal(err)
	}
	data, err := json.Marshal(items)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// sourceKeys returns the run-cache keys of the source jobs among the first
// 240 entries of a serve list: every variant once, and which variants come
// round again with the next max_cycles depends on the seed.
func sourceKeys(t *testing.T, seed int64) map[string]bool {
	t.Helper()
	items, err := serveList(seed, false)
	if err != nil {
		t.Fatal(err)
	}
	keys := map[string]bool{}
	for _, it := range items[:240] {
		if it.Kind == kindSource {
			keys[fmt.Sprintf("%s/max=%d", it.Key, it.Spec.MaxCycles)] = true
		}
	}
	return keys
}

func TestServeListSameSeedIsByteIdentical(t *testing.T) {
	for _, repeatAll := range []bool{false, true} {
		if a, b := marshalList(t, 7, repeatAll), marshalList(t, 7, repeatAll); !bytes.Equal(a, b) {
			t.Fatalf("repeatAll=%t: two lists from seed 7 differ", repeatAll)
		}
	}
	if a, b := detailedLoops(7), detailedLoops(7); !slices.Equal(a, b) {
		t.Fatalf("detailed loops from seed 7 differ: %v vs %v", a, b)
	}
}

func TestServeListSeedChangesSourceKeys(t *testing.T) {
	a, b := sourceKeys(t, 1), sourceKeys(t, 2)
	if len(a) == 0 {
		t.Fatal("seed 1 drew no source jobs")
	}
	same := len(a) == len(b)
	for k := range a {
		if !b[k] {
			same = false
		}
	}
	if same {
		t.Fatal("seeds 1 and 2 drew the same set of source keys")
	}
}

// Source jobs never repeat in a serve list, so every source job is a
// run-cache miss; in a fabric list every source job comes exactly twice. Both
// lists miss the cache on a third of their entries.
func TestServeListSourceRepeats(t *testing.T) {
	for _, repeatAll := range []bool{false, true} {
		items, err := serveList(3, repeatAll)
		if err != nil {
			t.Fatal(err)
		}
		type job struct {
			key       string
			maxCycles int64
		}
		count := map[job]int{}
		for _, it := range items {
			if it.Kind == kindSource {
				count[job{it.Key, it.Spec.MaxCycles}]++
			}
		}
		for j, n := range count {
			if !repeatAll && n != 1 {
				t.Errorf("serve list sends %v %d times", j, n)
			}
			if repeatAll && n > 2 {
				t.Errorf("fabric list sends %v %d times", j, n)
			}
		}
		if want := len(items) * sourcePerBlock / blockLen; len(count) < want-sourcePerBlock || len(count) > want {
			t.Errorf("repeatAll=%t: %d distinct source jobs in %d entries, want about %d", repeatAll, len(count), len(items), want)
		}
	}
}

// golden.json holds an entry for every key a seed can draw, and no other.
func TestGoldenKeys(t *testing.T) {
	g, err := loadGolden()
	if err != nil {
		t.Fatal(err)
	}
	keys, err := goldenKeys()
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]bool{}
	for _, k := range keys {
		want[k] = true
		if _, err := g.get(k); err != nil {
			t.Error(err)
		}
	}
	for k := range g {
		if !want[k] {
			t.Errorf("golden.json holds %q, which no workload reads", k)
		}
	}
}
