package telemetry

import (
	"bytes"
	"fmt"
	"math"
	"strconv"
	"testing"

	"loopfrog/internal/cpu"
	"loopfrog/internal/workloads"
)

// mapEncoder is the trace encoder as it was before events were appended
// into a reused buffer: fmt.Sprintf per event, and a map of the slot
// classes per commit-slot sample. It is the reference the trace output must
// match byte for byte.
type mapEncoder struct {
	buf bytes.Buffer
	n   int
}

func (o *mapEncoder) event(ph string, pid, tid int, ts int64, name, body string) {
	sep := ",\n"
	if o.n == 0 {
		sep = "\n"
	}
	o.n++
	o.buf.WriteString(fmt.Sprintf(`%s{"ph":%q,"pid":%d,"tid":%d,"ts":%d,"name":%s%s}`,
		sep, ph, pid, tid, ts, strconv.Quote(name), body))
}

func (o *mapEncoder) slotSample(pid int, cycle int64, delta [cpu.NumSlotClasses]uint64) {
	names := cpu.SlotClassNames()
	series := make(map[string]int64, cpu.NumSlotClasses)
	for i, d := range delta {
		series[names[i]] = int64(d)
	}
	o.event("C", pid, 0, cycle, "commit-slots", encodeArgs(series))
}

// TestSlotSampleEncodingMatchesMapEncoder replays a commit-slot sample
// stream recorded from a LoopFrog run of deepsjeng, plus samples at the
// edges of the value range and one event of every other kind, through the
// tracer and through mapEncoder, and requires identical bytes.
func TestSlotSampleEncodingMatchesMapEncoder(t *testing.T) {
	type sample struct {
		cycle int64
		delta [cpu.NumSlotClasses]uint64
	}
	m, err := cpu.NewMachine(cpu.DefaultConfig(), workloads.ByName(workloads.CPU2017(), "deepsjeng").MustProgram())
	if err != nil {
		t.Fatal(err)
	}
	var stream []sample
	m.SetSlotSampler(64, func(cycle int64, delta [cpu.NumSlotClasses]uint64) {
		stream = append(stream, sample{cycle, delta})
	})
	if _, err := m.Run(); err != nil {
		t.Fatal(err)
	}
	m.FlushSlotSample()
	if len(stream) < 100 {
		t.Fatalf("recorded only %d samples", len(stream))
	}
	var edge sample
	for i := range edge.delta {
		edge.delta[i] = []uint64{0, 1, math.MaxInt64, math.MaxUint64, 1 << 63}[i%5]
	}
	edge.cycle = -7
	stream = append(stream, edge)

	var got bytes.Buffer
	tr := NewTrace(&got)
	mt := &MachineTracer{tr: tr, pid: 3}
	want := &mapEncoder{}
	want.buf.WriteString(`{"displayTimeUnit":"ms","traceEvents":[`)
	for i, s := range stream {
		mt.onSlotSample(s.cycle, s.delta)
		want.slotSample(3, s.cycle, s.delta)
		if i%50 == 0 {
			args := map[string]int64{"region": int64(i), "factor": -2}
			tr.Begin(3, 1, s.cycle, `epoch "q" r=1`, args)
			want.event("B", 3, 1, s.cycle, `epoch "q" r=1`, encodeArgs(args))
			tr.Instant(3, 1, s.cycle, "squash:conflict", nil)
			want.event("i", 3, 1, s.cycle, "squash:conflict", `,"s":"t"`)
			tr.Counter(3, s.cycle, "x", map[string]int64{"b": 2, "a": 1})
			want.event("C", 3, 0, s.cycle, "x", `,"args":{"a":1,"b":2}`)
			tr.End(3, 1, s.cycle)
			want.event("E", 3, 1, s.cycle, "", "")
		}
	}
	tr.MetaProcess(3, "loopfrog window 3")
	want.event("M", 3, 0, 0, "process_name", `,"args":{"name":"loopfrog window 3"}`)
	if err := tr.Close(); err != nil {
		t.Fatal(err)
	}
	want.buf.WriteString("\n]}\n")
	if !bytes.Equal(got.Bytes(), want.buf.Bytes()) {
		g, w := got.Bytes(), want.buf.Bytes()
		i := 0
		for i < len(g) && i < len(w) && g[i] == w[i] {
			i++
		}
		t.Fatalf("trace differs from the map encoder at byte %d of %d/%d:\n got %q\nwant %q",
			i, len(g), len(w), g[i:min(i+80, len(g))], w[i:min(i+80, len(w))])
	}
	decodeTrace(t, got.Bytes())
}
