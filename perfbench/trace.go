package main

import (
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// benchLayer names the benchmark's own bookkeeping spans (set-up rounds,
// passes, probe phases). They give the trace its structure but are not a
// layer of the program, so coverage and self time leave them out.
const benchLayer = "bench"

// span is one timed call the benchmark made into a layer: its name, start,
// end, the span that caused it, and the job it belongs to.
type span struct {
	tr     *tracer
	ID     int64
	Parent int64
	Job    string
	Layer  string
	Name   string
	Lane   int
	Start  time.Duration // offsets from the tracer's epoch
	End    time.Duration
}

// tracer keeps spans in memory and writes them out once, as a Chrome trace,
// when the run ends. A nil *tracer records nothing, so untraced runs pay only
// a nil check per call site.
type tracer struct {
	epoch  time.Time
	nextID atomic.Int64
	mu     sync.Mutex
	spans  []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// start opens a span on lane (the client or worker that made the call) under
// parent (0 for a root span).
func (t *tracer) start(lane int, layer, name, job string, parent int64) *span {
	if t == nil {
		return nil
	}
	return &span{tr: t, ID: t.nextID.Add(1), Parent: parent, Job: job, Layer: layer,
		Name: name, Lane: lane, Start: time.Since(t.epoch)}
}

// record adds a span whose bounds the caller measured itself, such as a
// server-side phase reported in a job view.
func (t *tracer) record(lane int, layer, name, job string, parent int64, from, to time.Time) {
	if t == nil {
		return
	}
	s := span{ID: t.nextID.Add(1), Parent: parent, Job: job, Layer: layer, Name: name,
		Lane: lane, Start: from.Sub(t.epoch), End: to.Sub(t.epoch)}
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

// id returns the span's ID, 0 for the nil span of an untraced run.
func (s *span) id() int64 {
	if s == nil {
		return 0
	}
	return s.ID
}

func (s *span) end() {
	if s == nil {
		return
	}
	s.End = time.Since(s.tr.epoch)
	t := s.tr
	t.mu.Lock()
	t.spans = append(t.spans, *s)
	t.mu.Unlock()
}

// snapshot returns the recorded spans ordered by start time.
func (t *tracer) snapshot() []span {
	t.mu.Lock()
	out := append([]span(nil), t.spans...)
	t.mu.Unlock()
	sort.Slice(out, func(i, j int) bool { return out[i].Start < out[j].Start })
	return out
}

// total sums the durations of the spans named name, and counts them.
func (t *tracer) total(name string) (time.Duration, int) {
	if t == nil {
		return 0, 0
	}
	var d time.Duration
	n := 0
	for _, s := range t.snapshot() {
		if s.Name == name {
			d += s.End - s.Start
			n++
		}
	}
	return d, n
}

type interval struct{ from, to time.Duration }

// union returns the length of the union of the intervals.
func union(iv []interval) time.Duration {
	sort.Slice(iv, func(i, j int) bool { return iv[i].from < iv[j].from })
	var total time.Duration
	var cur interval
	open := false
	for _, x := range iv {
		switch {
		case !open:
			cur, open = x, true
		case x.from <= cur.to:
			if x.to > cur.to {
				cur.to = x.to
			}
		default:
			total += cur.to - cur.from
			cur = x
		}
	}
	if open {
		total += cur.to - cur.from
	}
	return total
}

// coverage is the share of the run's wall time, from the tracer's epoch to
// now, during which at least one layer span was open.
func (t *tracer) coverage() float64 {
	wall := time.Since(t.epoch)
	var iv []interval
	for _, s := range t.snapshot() {
		if s.Layer != benchLayer {
			iv = append(iv, interval{s.Start, s.End})
		}
	}
	if wall <= 0 {
		return 0
	}
	return float64(union(iv)) / float64(wall)
}

// selfTimes returns each layer's self time in milliseconds: its spans'
// durations minus the part of each interval its child spans cover.
func (t *tracer) selfTimes() map[string]float64 {
	spans := t.snapshot()
	children := make(map[int64][]interval)
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], interval{s.Start, s.End})
		}
	}
	out := make(map[string]float64)
	for _, s := range spans {
		if s.Layer == benchLayer {
			continue
		}
		var inside []interval
		for _, c := range children[s.ID] {
			from, to := max(c.from, s.Start), min(c.to, s.End)
			if to > from {
				inside = append(inside, interval{from, to})
			}
		}
		self := s.End - s.Start - union(inside)
		out[s.Layer] += float64(self) / 1e6
	}
	return out
}

// chromeEvent is one complete ("X") event of the Chrome trace format.
type chromeEvent struct {
	Name string         `json:"name"`
	Cat  string         `json:"cat"`
	Ph   string         `json:"ph"`
	TS   float64        `json:"ts"`
	Dur  float64        `json:"dur"`
	PID  int            `json:"pid"`
	TID  int            `json:"tid"`
	Args map[string]any `json:"args"`
}

// write stores the spans as a Chrome trace (chrome://tracing, Perfetto) with
// the run's description under otherData.
func (t *tracer) write(path string, other any) error {
	spans := t.snapshot()
	events := make([]chromeEvent, 0, len(spans))
	for _, s := range spans {
		events = append(events, chromeEvent{
			Name: s.Name, Cat: s.Layer, Ph: "X",
			TS:  float64(s.Start) / 1e3,
			Dur: float64(s.End-s.Start) / 1e3,
			PID: 1, TID: s.Lane,
			Args: map[string]any{"span": s.ID, "parent": s.Parent, "job": s.Job},
		})
	}
	data, err := json.Marshal(map[string]any{"traceEvents": events, "otherData": other})
	if err != nil {
		return fmt.Errorf("encode trace: %w", err)
	}
	if err := os.WriteFile(path, data, 0o644); err != nil {
		return fmt.Errorf("write trace: %w", err)
	}
	return nil
}
