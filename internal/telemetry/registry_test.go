package telemetry

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"
)

type sampleStats struct {
	Hits     uint64
	Misses   int64
	Ratio    float64
	Enabled  bool
	Buckets  [3]uint64
	internal int // unexported: must be skipped, not rejected
}

func TestRegistryStructSnapshot(t *testing.T) {
	s := &sampleStats{Hits: 7, Misses: -2, Ratio: 0.5, Enabled: true, Buckets: [3]uint64{1, 2, 3}}
	s.internal = 99
	r := NewRegistry()
	if err := r.RegisterStruct("cache", s); err != nil {
		t.Fatal(err)
	}
	s.Hits = 8 // sources must be read live, not frozen at registration
	want := map[string]float64{
		"cache.Hits": 8, "cache.Misses": -2, "cache.Ratio": 0.5, "cache.Enabled": 1,
		"cache.Buckets.0": 1, "cache.Buckets.1": 2, "cache.Buckets.2": 3,
	}
	snap := r.Snapshot()
	if len(snap) != len(want) {
		t.Fatalf("snapshot has %d metrics, want %d: %v", len(snap), len(want), snap)
	}
	for _, m := range snap {
		if w, ok := want[m.Name]; !ok || w != m.Value {
			t.Errorf("metric %q = %v, want %v (present %v)", m.Name, m.Value, w, ok)
		}
	}
	for i := 1; i < len(snap); i++ {
		if snap[i-1].Name >= snap[i].Name {
			t.Fatalf("snapshot not sorted: %q before %q", snap[i-1].Name, snap[i].Name)
		}
	}
}

func TestRegistryRejectsNonPointer(t *testing.T) {
	r := NewRegistry()
	if err := r.RegisterStruct("x", sampleStats{}); err == nil {
		t.Fatal("value (non-pointer) registration must fail")
	}
	if err := r.RegisterStruct("x", new(int)); err == nil {
		t.Fatal("non-struct registration must fail")
	}
}

func TestRegistryRejectsUnsupportedFields(t *testing.T) {
	type bad struct {
		OK   uint64
		Name string // not exportable as a metric
	}
	r := NewRegistry()
	err := r.RegisterStruct("bad", &bad{})
	if err == nil {
		t.Fatal("struct with a string field must be rejected, not silently truncated")
	}
	if !strings.Contains(err.Error(), "Name") {
		t.Errorf("error should name the offending field: %v", err)
	}
}

func TestRegistryStructFuncAndGauge(t *testing.T) {
	n := 0
	r := NewRegistry()
	if err := r.RegisterStructFunc("by-value", func() any { n++; return sampleStats{Hits: uint64(n)} }); err != nil {
		t.Fatal(err)
	}
	r.RegisterGauge("custom.g", func() float64 { return 2.5 })
	snap := r.Snapshot()
	got := map[string]float64{}
	for _, m := range snap {
		got[m.Name] = m.Value
	}
	if got["by-value.Hits"] < 2 { // validation call + snapshot call
		t.Errorf("struct func not re-read at snapshot: %v", got["by-value.Hits"])
	}
	if got["custom.g"] != 2.5 {
		t.Errorf("gauge = %v, want 2.5", got["custom.g"])
	}
}

func TestRegistryWriteJSONParses(t *testing.T) {
	s := &sampleStats{Hits: 1 << 40, Ratio: 0.25}
	r := NewRegistry()
	if err := r.RegisterStruct("cpu", s); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := r.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Metrics map[string]float64 `json:"metrics"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("output is not valid JSON: %v\n%s", err, buf.String())
	}
	if doc.Metrics["cpu.Hits"] != float64(uint64(1)<<40) {
		t.Errorf("cpu.Hits = %v", doc.Metrics["cpu.Hits"])
	}
	if doc.Metrics["cpu.Ratio"] != 0.25 {
		t.Errorf("cpu.Ratio = %v", doc.Metrics["cpu.Ratio"])
	}
	// Integral counters must render without a fractional part.
	if !strings.Contains(buf.String(), "\"cpu.Hits\": 1099511627776") {
		t.Errorf("integral counter rendered unexpectedly:\n%s", buf.String())
	}
}

func TestRegistryWritePrometheus(t *testing.T) {
	r := NewRegistry()
	if err := r.RegisterStruct("serve.api", &sampleStats{Hits: 7, Ratio: 0.25}); err != nil {
		t.Fatal(err)
	}
	r.RegisterGauge("region.41.squash.pack-mispredict", func() float64 { return 3 })
	r.RegisterGauge("9lives", func() float64 { return 1 })
	var buf bytes.Buffer
	if err := r.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	// Every metric exports as a gauge with its name mapped onto the
	// Prometheus charset: dots and dashes become underscores, a leading
	// digit gains an underscore prefix, integral values stay integral.
	for _, want := range []string{
		"# TYPE serve_api_Hits gauge\nserve_api_Hits 7\n",
		"serve_api_Ratio 0.25\n",
		"# TYPE region_41_squash_pack_mispredict gauge\nregion_41_squash_pack_mispredict 3\n",
		"_9lives 1\n",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q:\n%s", want, out)
		}
	}
	for _, line := range strings.Split(strings.TrimRight(out, "\n"), "\n") {
		name := strings.Fields(line)[0]
		if name == "#" {
			name = strings.Fields(line)[2]
		}
		for i := 0; i < len(name); i++ {
			c := name[i]
			ok := c >= 'a' && c <= 'z' || c >= 'A' && c <= 'Z' || c == '_' || c == ':' || (c >= '0' && c <= '9' && i > 0)
			if !ok {
				t.Fatalf("name %q escapes the Prometheus charset (line %q)", name, line)
			}
		}
	}
}
