package telemetry

import (
	"bytes"
	"fmt"
	"reflect"
	"strings"
	"testing"

	"loopfrog/internal/core"
	"loopfrog/internal/cpu"
	"loopfrog/internal/mem"
	"loopfrog/internal/sim"
	"loopfrog/internal/workloads"
)

func runTracedBenchmark(t *testing.T, name string) (*cpu.Machine, *cpu.Stats, traceDoc) {
	t.Helper()
	b := workloads.ByName(workloads.CPU2017(), name)
	if b == nil {
		t.Fatalf("unknown benchmark %q", name)
	}
	m, err := cpu.NewMachine(cpu.DefaultConfig(), b.MustProgram())
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	tr := NewTrace(&buf)
	mt := AttachMachine(m, tr, 0)
	st, err := m.Run()
	if err != nil {
		t.Fatal(err)
	}
	mt.Finish()
	if err := tr.Close(); err != nil {
		t.Fatal(err)
	}
	return m, st, decodeTrace(t, buf.Bytes())
}

// TestMachineTraceSchema validates the emitted Chrome trace on two real
// benchmarks: the JSON parses, every event carries the required keys, B/E
// spans balance per track, and the commit-slot counter track is present —
// the acceptance gate for Perfetto loadability.
func TestMachineTraceSchema(t *testing.T) {
	for _, bench := range []string{"mcf", "x264"} {
		t.Run(bench, func(t *testing.T) {
			_, st, doc := runTracedBenchmark(t, bench)
			if len(doc.TraceEvents) == 0 {
				t.Fatal("no trace events")
			}
			depth := map[int]int{}
			var counters, instants, metas int
			for i, e := range doc.TraceEvents {
				if e.Ph == "" || e.Pid == nil || e.Tid == nil || e.Ts == nil {
					t.Fatalf("event %d missing required keys: %+v", i, e)
				}
				if *e.Ts < 0 || *e.Ts > st.Cycles {
					t.Fatalf("event %d timestamp %d outside run [0, %d]", i, *e.Ts, st.Cycles)
				}
				switch e.Ph {
				case "B":
					depth[*e.Tid]++
				case "E":
					depth[*e.Tid]--
					if depth[*e.Tid] < 0 {
						t.Fatalf("event %d: E without matching B on tid %d", i, *e.Tid)
					}
				case "i":
					instants++
				case "C":
					counters++
					if e.Name != "commit-slots" {
						t.Errorf("unexpected counter %q", e.Name)
					}
					for _, name := range cpu.SlotClassNames() {
						if _, ok := e.Args[name]; !ok {
							t.Fatalf("counter sample missing series %q: %+v", name, e.Args)
						}
					}
				case "M":
					metas++
				default:
					t.Fatalf("event %d: unknown phase %q", i, e.Ph)
				}
			}
			for tid, d := range depth {
				if d != 0 {
					t.Errorf("tid %d has %d unclosed spans", tid, d)
				}
			}
			if counters == 0 {
				t.Error("no commit-slot counter samples")
			}
			if metas < 1+cpu.DefaultConfig().Threadlets {
				t.Errorf("only %d metadata events; every track must be named", metas)
			}
			// The counter samples must partition the full attribution.
			var sampled uint64
			for _, e := range doc.TraceEvents {
				if e.Ph == "C" {
					for name, v := range e.Args {
						f, ok := v.(float64)
						if !ok {
							t.Fatalf("counter series %q is not numeric: %v", name, v)
						}
						sampled += uint64(f)
					}
				}
			}
			var total uint64
			for _, c := range st.CommitSlots {
				total += c
			}
			if sampled != total {
				t.Errorf("counter samples sum to %d, attribution totals %d", sampled, total)
			}
		})
	}
}

// TestCommitSlotSumOnBenchmarks is the acceptance criterion: per-cycle
// commit-slot attribution sums exactly to Cycles x CommitWidth on at least
// two benchmarks.
func TestCommitSlotSumOnBenchmarks(t *testing.T) {
	cfg := cpu.DefaultConfig()
	for _, bench := range []string{"mcf", "x264"} {
		t.Run(bench, func(t *testing.T) {
			b := workloads.ByName(workloads.CPU2017(), bench)
			st, err := sim.Run(cfg, b.MustProgram())
			if err != nil {
				t.Fatal(err)
			}
			var sum uint64
			for _, c := range st.CommitSlots {
				sum += c
			}
			if want := uint64(st.Cycles) * uint64(cfg.Width); sum != want {
				t.Fatalf("slots sum %d != Cycles(%d) x Width(%d) = %d", sum, st.Cycles, cfg.Width, want)
			}
		})
	}
}

// exportedLeaves lists the dotted metric suffixes reflection should produce
// for a struct type — the ground truth for the round-trip test. A field
// tagged `metrics:"-"` opted out of flattening (it is re-exported through a
// dynamic section instead; the registry tag test covers the mechanism).
func exportedLeaves(t reflect.Type, path string) []string {
	var out []string
	for i := 0; i < t.NumField(); i++ {
		f := t.Field(i)
		if !f.IsExported() || f.Tag.Get("metrics") == "-" {
			continue
		}
		name := f.Name
		if path != "" {
			name = path + "." + name
		}
		switch f.Type.Kind() {
		case reflect.Array:
			for j := 0; j < f.Type.Len(); j++ {
				out = append(out, fmt.Sprintf("%s.%d", name, j))
			}
		case reflect.Struct:
			out = append(out, exportedLeaves(f.Type, name)...)
		default:
			out = append(out, name)
		}
	}
	return out
}

// TestRegistryRoundTripCompleteness runs a machine, collects it into a
// registry, and verifies by reflection that no exported field of cpu.Stats,
// core.SSBStats, or mem.CacheStats is silently dropped — and that the
// counter values survive the trip exactly.
func TestRegistryRoundTripCompleteness(t *testing.T) {
	m, st, _ := runTracedBenchmark(t, "mcf")
	reg := NewRegistry()
	if err := CollectMachine(reg, m); err != nil {
		t.Fatal(err)
	}
	snap := map[string]float64{}
	for _, mt := range reg.Snapshot() {
		if _, dup := snap[mt.Name]; dup {
			t.Errorf("duplicate metric %q", mt.Name)
		}
		snap[mt.Name] = mt.Value
	}

	for _, tc := range []struct {
		prefix string
		typ    reflect.Type
	}{
		{"cpu", reflect.TypeOf(cpu.Stats{})},
		{"ssb", reflect.TypeOf(core.SSBStats{})},
		{"mem.l1i", reflect.TypeOf(mem.CacheStats{})},
		{"mem.l1d", reflect.TypeOf(mem.CacheStats{})},
		{"mem.l2", reflect.TypeOf(mem.CacheStats{})},
	} {
		for _, leaf := range exportedLeaves(tc.typ, tc.prefix) {
			if _, ok := snap[leaf]; !ok {
				t.Errorf("exported field %s dropped by the registry", leaf)
			}
		}
	}

	// Spot-check values against the live structs.
	if got := snap["cpu.Cycles"]; got != float64(st.Cycles) {
		t.Errorf("cpu.Cycles = %v, want %d", got, st.Cycles)
	}
	if got := snap["cpu.ArchInsts"]; got != float64(st.ArchInsts) {
		t.Errorf("cpu.ArchInsts = %v, want %d", got, st.ArchInsts)
	}
	if got := snap["ssb.Writes"]; got != float64(m.SSB().Stats.Writes) {
		t.Errorf("ssb.Writes = %v, want %d", got, m.SSB().Stats.Writes)
	}
	_, l1d, _ := m.Hierarchy().Stats()
	if got := snap["mem.l1d.Accesses"]; got != float64(l1d.Accesses) {
		t.Errorf("mem.l1d.Accesses = %v, want %d", got, l1d.Accesses)
	}
	// Named slot metrics mirror the array.
	for i, name := range cpu.SlotClassNames() {
		if got := snap["cpu.slots."+name]; got != float64(st.CommitSlots[i]) {
			t.Errorf("cpu.slots.%s = %v, want %d", name, got, st.CommitSlots[i])
		}
		if got := snap[fmt.Sprintf("cpu.CommitSlots.%d", i)]; got != float64(st.CommitSlots[i]) {
			t.Errorf("cpu.CommitSlots.%d = %v, want %d", i, got, st.CommitSlots[i])
		}
	}
	// Named squash metrics mirror the array.
	for c := 0; c < core.NumSquashCauses; c++ {
		name := "cpu.squash." + core.SquashCause(c).String()
		if got := snap[name]; got != float64(st.Squashes[c]) {
			t.Errorf("%s = %v, want %d", name, got, st.Squashes[c])
		}
	}
}

// TestCollectHarness checks the harness scheduling telemetry lands in the
// registry and is self-consistent.
func TestCollectHarness(t *testing.T) {
	h := sim.NewHarness()
	suite := []*workloads.Benchmark{workloads.ByName(workloads.CPU2017(), "mcf")}
	if _, err := h.RunSuite(cpu.DefaultConfig(), suite); err != nil {
		t.Fatal(err)
	}
	reg := NewRegistry()
	if err := CollectHarness(reg, h); err != nil {
		t.Fatal(err)
	}
	snap := map[string]float64{}
	for _, m := range reg.Snapshot() {
		snap[m.Name] = m.Value
	}
	if snap["harness.Jobs"] != 2 {
		t.Errorf("harness.Jobs = %v, want 2 (baseline + loopfrog)", snap["harness.Jobs"])
	}
	if snap["harness.CacheMisses"] != 2 {
		t.Errorf("harness.CacheMisses = %v, want 2", snap["harness.CacheMisses"])
	}
	if snap["harness.JobNanos"] <= 0 || snap["harness.WallNanos"] <= 0 {
		t.Errorf("wall-time counters empty: job=%v wall=%v", snap["harness.JobNanos"], snap["harness.WallNanos"])
	}
	u := snap["harness.Utilization"]
	if u <= 0 || u > 1.0001 {
		t.Errorf("utilization %v out of range", u)
	}
	// A second identical run must be served by the cache.
	if _, err := h.RunSuite(cpu.DefaultConfig(), suite); err != nil {
		t.Fatal(err)
	}
	if s := h.Stats(); s.CacheHits != 2 || s.CacheMisses != 2 {
		t.Errorf("cache counters after repeat: hits=%d misses=%d, want 2/2", s.CacheHits, s.CacheMisses)
	}
}

// TestMachineTracerDetachesOnFinish ensures Finish removes both hooks so a
// finished tracer costs nothing if the machine were driven further.
func TestMachineTracerDetachesOnFinish(t *testing.T) {
	b := workloads.ByName(workloads.CPU2017(), "mcf")
	m, err := cpu.NewMachine(cpu.DefaultConfig(), b.MustProgram())
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	tr := NewTrace(&buf)
	mt := AttachMachine(m, tr, 0)
	if _, err := m.Run(); err != nil {
		t.Fatal(err)
	}
	mt.Finish()
	n := tr.Events()
	mt.Finish() // idempotent: everything already closed and detached
	if tr.Events() != n {
		t.Errorf("second Finish emitted %d extra events", tr.Events()-n)
	}
	if err := tr.Close(); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "commit-slots") {
		t.Error("trace has no commit-slot samples")
	}
}
