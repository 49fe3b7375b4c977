package telemetry

import (
	"fmt"
	"sort"
	"strconv"
	"sync"

	"loopfrog/internal/core"
	"loopfrog/internal/cpu"
	"loopfrog/internal/sim"
)

// This file adapts the simulator's components onto the generic registry and
// trace writer: CollectMachine/CollectHarness pull every stats struct into
// one metric tree, and AttachMachine renders the threadlet Event stream plus
// per-interval commit-slot attribution as a Perfetto-loadable trace.

// Metric tree prefixes.
const (
	prefixCPU      = "cpu"
	prefixSSB      = "ssb"
	prefixConflict = "conflict"
	prefixPack     = "pack"
	prefixMonitor  = "monitor"
	prefixBPred    = "bpred"
	prefixMemL1I   = "mem.l1i"
	prefixMemL1D   = "mem.l1d"
	prefixMemL2    = "mem.l2"
	prefixHarness  = "harness"
	prefixSlots    = "cpu.slots"
	prefixRegion   = "region"
)

// CollectMachine registers every component statistic of the machine into
// reg: the core counters (cpu.*), the LoopFrog apparatus (ssb.*, conflict.*,
// pack.*, monitor.*), the predictor (bpred.*), the cache hierarchy
// (mem.l1i.*, mem.l1d.*, mem.l2.*), and named commit-slot attribution
// (cpu.slots.<class>). Every source reads through the machine's published
// StatsSnapshot, so reg can be snapshotted from any goroutine during or
// after Run — a /metrics endpoint polling mid-run never races the pipeline
// (the snapshot lags a live run by at most the machine's publish interval,
// ~8k cycles, and is exact once the run returns).
func CollectMachine(reg *Registry, m *cpu.Machine) error {
	for _, src := range []struct {
		prefix string
		read   func() any
	}{
		{prefixCPU, func() any { return m.SnapshotStats().CPU }},
		{prefixSSB, func() any { return m.SnapshotStats().SSB }},
		{prefixConflict, func() any { return m.SnapshotStats().Conflict }},
		{prefixPack, func() any { return m.SnapshotStats().Pack }},
		{prefixMonitor, func() any { return m.SnapshotStats().Monitor }},
		{prefixBPred, func() any { return m.SnapshotStats().BPred }},
		{prefixMemL1I, func() any { return m.SnapshotStats().L1I }},
		{prefixMemL1D, func() any { return m.SnapshotStats().L1D }},
		{prefixMemL2, func() any { return m.SnapshotStats().L2 }},
	} {
		if err := reg.RegisterStructFunc(src.prefix, src.read); err != nil {
			return err
		}
	}
	// Named views of the index-keyed arrays, for humans and dashboards.
	names := cpu.SlotClassNames()
	for i := 0; i < cpu.NumSlotClasses; i++ {
		i := i
		reg.RegisterGauge(prefixSlots+"."+names[i], func() float64 {
			return float64(m.SnapshotStats().CPU.CommitSlots[i])
		})
	}
	for c := 0; c < core.NumSquashCauses; c++ {
		c := c
		reg.RegisterGauge(prefixCPU+".squash."+core.SquashCause(c).String(), func() float64 {
			return float64(m.SnapshotStats().CPU.Squashes[c])
		})
	}
	// Region-keyed section: the per-region speculation ledgers, whose key
	// space (region IDs) only exists at run time, exported as
	// region.<id>.<counter>.
	reg.RegisterFunc(prefixRegion, func() []Metric {
		return AppendRegionMetrics(nil, m.SnapshotStats().CPU.Regions)
	})
	return nil
}

// AppendRegionMetrics flattens per-region ledgers into <id>.<counter>
// metrics (the outside-any-region bucket renders as "outside"). Shared by
// CollectMachine's region section and any harness-level aggregation export.
func AppendRegionMetrics(out []Metric, regions []cpu.RegionLedger) []Metric {
	slotNames := cpu.SlotClassNames()
	for i := range regions {
		l := &regions[i]
		key := "outside"
		if l.Region != cpu.RegionOutside {
			key = fmt.Sprintf("%d", l.Region)
		}
		add := func(name string, v uint64) {
			out = append(out, Metric{Name: key + "." + name, Value: float64(v)})
		}
		add("detaches", l.Detaches)
		add("spawns", l.Spawns)
		add("packed-spawns", l.PackedSpawns)
		add("detach-no-context", l.DetachNoContext)
		add("retires", l.Retires)
		add("promotes", l.Promotes)
		add("restarts", l.Restarts)
		add("spec-won", l.SpecWon)
		add("spec-lost", l.SpecLost)
		add("pack-verifies", l.PackVerifies)
		add("pack-mispredicts", l.PackMispredicts)
		add("pack-repairs", l.PackRepairs)
		for c := 0; c < core.NumSquashCauses; c++ {
			add("squash."+core.SquashCause(c).String(), l.Squashes[c])
		}
		for c := 0; c < cpu.NumSlotClasses; c++ {
			add("slots."+slotNames[c], l.Slots[c])
		}
	}
	return out
}

// CollectHarness registers the evaluation harness's scheduling and run-cache
// telemetry into reg under harness.*.
func CollectHarness(reg *Registry, h *sim.Harness) error {
	return reg.RegisterStructFunc(prefixHarness, func() any { return h.Stats() })
}

// DefaultSlotSampleInterval is the default commit-slot counter sampling
// period, in cycles. At one trace microsecond per cycle this yields ~4k
// samples per million cycles — dense enough for Perfetto's stacked counter
// view, small next to the lifecycle events.
const DefaultSlotSampleInterval = 256

// MachineTracer bridges a machine's event hook and slot sampler onto a
// Trace. Attach before Run; call Finish once after.
type MachineTracer struct {
	tr   *Trace
	m    *cpu.Machine
	pid  int
	open []bool // per-context: an epoch span is open on its track
	args []byte // the last commit-slot sample's args, reused
}

// AttachMachine wires m's threadlet lifecycle events and commit-slot
// attribution into tr: one trace thread per threadlet context carrying epoch
// spans (begin at spawn, end at retire/squash) with promote/squash/restart
// instants carrying their region, and a stacked "commit-slots" counter track
// sampled every sampleEvery cycles (<= 0 uses DefaultSlotSampleInterval).
// Everything lands on trace process 0 ("loopfrog core").
func AttachMachine(m *cpu.Machine, tr *Trace, sampleEvery int64) *MachineTracer {
	return AttachMachinePID(m, tr, sampleEvery, 0, "loopfrog core")
}

// AttachMachinePID is AttachMachine onto an explicit trace process, so
// several machines (the parallel-in-time windows of a sampled run) can share
// one Trace without their spans interleaving ambiguously: each window gets
// its own pid and process name, and Perfetto renders them as separate
// process groups. The Trace serialises concurrent emissions itself.
func AttachMachinePID(m *cpu.Machine, tr *Trace, sampleEvery int64, pid int, name string) *MachineTracer {
	cfg := m.Config()
	mt := &MachineTracer{tr: tr, m: m, pid: pid, open: make([]bool, cfg.Threadlets)}
	tr.MetaProcess(pid, name)
	for tid := 0; tid < cfg.Threadlets; tid++ {
		tr.MetaThread(pid, tid, fmt.Sprintf("ctx%d", tid))
	}
	// Context 0 is live from reset as the initial architectural threadlet;
	// it never sees an EvSpawn.
	tr.Begin(pid, 0, m.Now(), "arch", nil)
	mt.open[0] = true

	m.SetEventHook(mt.onEvent)
	if sampleEvery <= 0 {
		sampleEvery = DefaultSlotSampleInterval
	}
	m.SetSlotSampler(sampleEvery, mt.onSlotSample)
	return mt
}

func (mt *MachineTracer) onEvent(e cpu.Event) {
	if e.Tid < 0 || e.Tid >= len(mt.open) {
		return
	}
	switch e.Kind {
	case cpu.EvSpawn:
		if mt.open[e.Tid] { // defensive: never emit unbalanced B events
			mt.tr.End(mt.pid, e.Tid, e.Cycle)
		}
		mt.tr.Begin(mt.pid, e.Tid, e.Cycle, fmt.Sprintf("epoch r=%d", e.Region),
			map[string]int64{"region": e.Region, "factor": int64(e.Detail)})
		mt.open[e.Tid] = true
	case cpu.EvRetire:
		mt.closeSpan(e.Tid, e.Cycle)
	case cpu.EvPromote:
		mt.tr.Instant(mt.pid, e.Tid, e.Cycle, "promote",
			map[string]int64{"region": e.Region})
	case cpu.EvSquash:
		mt.tr.Instant(mt.pid, e.Tid, e.Cycle, "squash:"+core.SquashCause(e.Detail).String(),
			map[string]int64{"region": e.Region, "cause": int64(e.Detail)})
		mt.closeSpan(e.Tid, e.Cycle)
	case cpu.EvSyncCancel:
		mt.tr.Instant(mt.pid, e.Tid, e.Cycle, "sync-cancel",
			map[string]int64{"region": e.Region})
		mt.closeSpan(e.Tid, e.Cycle)
	case cpu.EvRestart:
		// The context stays live and re-runs its epoch from the checkpoint:
		// end the failed attempt and open the next one.
		mt.tr.Instant(mt.pid, e.Tid, e.Cycle, "restart:"+core.SquashCause(e.Detail).String(),
			map[string]int64{"region": e.Region, "cause": int64(e.Detail)})
		if mt.open[e.Tid] {
			mt.tr.End(mt.pid, e.Tid, e.Cycle)
		}
		mt.tr.Begin(mt.pid, e.Tid, e.Cycle, fmt.Sprintf("epoch r=%d retry", e.Region),
			map[string]int64{"region": e.Region})
		mt.open[e.Tid] = true
	}
}

func (mt *MachineTracer) closeSpan(tid int, cycle int64) {
	if mt.open[tid] {
		mt.tr.End(mt.pid, tid, cycle)
		mt.open[tid] = false
	}
}

// onSlotSample emits one commit-slot counter sample. It encodes the args
// as Counter would from a map of the slot classes, without building one.
func (mt *MachineTracer) onSlotSample(cycle int64, delta [cpu.NumSlotClasses]uint64) {
	b := mt.args[:0]
	for _, k := range slotArgKeys {
		b = append(b, k.key...)
		b = strconv.AppendInt(b, int64(delta[k.class]), 10)
	}
	mt.args = append(b, '}')
	mt.tr.eventBytes("C", mt.pid, 0, cycle, "commit-slots", mt.args)
}

// slotArgKeys are the commit-slot classes in the order encodeArgs writes
// their names (sorted), each with its encoded key and the separator or
// opening before it.
var slotArgKeys = func() []slotArgKey {
	names := cpu.SlotClassNames()
	keys := make([]slotArgKey, len(names))
	for i := range names {
		keys[i].class = i
	}
	sort.Slice(keys, func(i, j int) bool { return names[keys[i].class] < names[keys[j].class] })
	for i := range keys {
		sep := ","
		if i == 0 {
			sep = `,"args":{`
		}
		keys[i].key = sep + strconv.Quote(names[keys[i].class]) + ":"
	}
	return keys
}()

type slotArgKey struct {
	class int
	key   string
}

// TraceSampledWindows builds the observer pair for tracing a sampled run's
// parallel-in-time detailed windows into one Trace. The observe function
// plugs into sim's RunSampledCtx: window i lands on trace pid i+1
// (pid 0 stays reserved for a whole-run machine) named "loopfrog window
// i+1", so Perfetto renders each window as its own process group and
// interleaved windows never read as one ambiguous timeline. Call finish
// exactly once after the sampled run returns to flush and close every
// window's tracer; the caller still owns tr and must Close it. Windows
// served from the harness run-cache execute no machine and leave no tracks.
func TraceSampledWindows(tr *Trace, sampleEvery int64) (observe func(win int, m *cpu.Machine), finish func()) {
	var mu sync.Mutex
	var tracers []*MachineTracer
	observe = func(win int, m *cpu.Machine) {
		mt := AttachMachinePID(m, tr, sampleEvery, win+1, fmt.Sprintf("loopfrog window %d", win+1))
		mu.Lock()
		tracers = append(tracers, mt)
		mu.Unlock()
	}
	finish = func() {
		mu.Lock()
		defer mu.Unlock()
		for _, mt := range tracers {
			mt.Finish()
		}
		tracers = nil
	}
	return observe, finish
}

// Finish flushes the residual slot sample, closes every span still open at
// the machine's final cycle, and detaches the hooks. The caller still owns
// tr and must Close it.
func (mt *MachineTracer) Finish() {
	mt.m.FlushSlotSample()
	for tid := range mt.open {
		mt.closeSpan(tid, mt.m.Now())
	}
	mt.m.SetEventHook(nil)
	mt.m.SetSlotSampler(0, nil)
}
