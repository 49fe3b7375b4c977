// Package telemetry is the simulator's unified observability layer: a
// registry of named metrics that every simulator component exports into, and
// a Chrome trace-event writer (trace.go) that renders threadlet lifecycles
// and pipeline stall attribution for Perfetto.
//
// The registry is pull-based: components keep accumulating into their own
// stats structs exactly as before (the hot path never touches the registry),
// and Snapshot walks the registered sources with reflection at export time.
// This keeps instrumentation cost off the simulation loop entirely — a
// machine that is never snapshotted pays nothing.
package telemetry

import (
	"encoding/json"
	"fmt"
	"io"
	"reflect"
	"sort"
	"strings"
	"sync"
)

// Metric is one named sample in a snapshot.
type Metric struct {
	Name  string
	Value float64
}

// source is one registered metric producer.
type source struct {
	prefix string
	read   func() []Metric
}

// Registry holds named metric sources. The zero value is ready to use;
// registration and snapshots are safe for concurrent use, including
// Snapshot/WriteJSON calls racing each other (a polling /metrics endpoint).
// A source's read function must itself be safe to call from any goroutine:
// register a struct only while its producer is quiescent, or use a
// RegisterStructFunc that returns a coherent copy (cpu.Machine.SnapshotStats,
// sim.Harness.Stats do exactly this).
type Registry struct {
	mu      sync.Mutex
	sources []source
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry { return &Registry{} }

// RegisterStruct registers every exported numeric field of the struct
// pointed to by ptr under prefix ("cpu", "mem.l1d", ...). Fields are read at
// snapshot time, so the caller keeps mutating the struct freely. Supported
// field kinds are integers, unsigned integers, floats, bools (exported as
// 0/1), and fixed-size arrays of those (exported as name.0, name.1, ...).
// An exported field of any other kind is an error: the registry refuses to
// silently drop data.
func (r *Registry) RegisterStruct(prefix string, ptr any) error {
	v := reflect.ValueOf(ptr)
	if v.Kind() != reflect.Pointer || v.Elem().Kind() != reflect.Struct {
		return fmt.Errorf("telemetry: RegisterStruct(%q) needs a struct pointer, got %T", prefix, ptr)
	}
	if bad := unsupportedFields(v.Elem().Type(), ""); len(bad) > 0 {
		return fmt.Errorf("telemetry: %q has exported fields the registry cannot export: %s",
			prefix, strings.Join(bad, ", "))
	}
	elem := v.Elem()
	r.register(prefix, func() []Metric {
		return appendStructMetrics(nil, "", elem)
	})
	return nil
}

// RegisterStructFunc registers a snapshot function returning a struct (or
// struct pointer) whose exported fields are flattened under prefix at every
// snapshot, for components that hand out their statistics by value. fn is
// invoked once at registration to validate the field kinds.
func (r *Registry) RegisterStructFunc(prefix string, fn func() any) error {
	v := reflect.ValueOf(fn())
	if v.Kind() == reflect.Pointer {
		v = v.Elem()
	}
	if v.Kind() != reflect.Struct {
		return fmt.Errorf("telemetry: RegisterStructFunc(%q) needs a struct, got %s", prefix, v.Kind())
	}
	if bad := unsupportedFields(v.Type(), ""); len(bad) > 0 {
		return fmt.Errorf("telemetry: %q has exported fields the registry cannot export: %s",
			prefix, strings.Join(bad, ", "))
	}
	r.register(prefix, func() []Metric {
		v := reflect.ValueOf(fn())
		if v.Kind() == reflect.Pointer {
			v = v.Elem()
		}
		return appendStructMetrics(nil, "", v)
	})
	return nil
}

// RegisterGauge registers a single named metric read from fn at snapshot
// time.
func (r *Registry) RegisterGauge(name string, fn func() float64) {
	r.register("", func() []Metric { return []Metric{{Name: name, Value: fn()}} })
}

// RegisterFunc registers a dynamic source: fn is called at every snapshot
// and returns a fresh metric list, for sections whose key space only exists
// at run time (the per-region ledgers). Metric names are prefixed like
// RegisterStruct fields.
func (r *Registry) RegisterFunc(prefix string, fn func() []Metric) {
	r.register(prefix, fn)
}

func (r *Registry) register(prefix string, read func() []Metric) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.sources = append(r.sources, source{prefix: prefix, read: read})
}

// Snapshot reads every source and returns the metrics sorted by name.
func (r *Registry) Snapshot() []Metric {
	r.mu.Lock()
	sources := append([]source(nil), r.sources...)
	r.mu.Unlock()
	var out []Metric
	for _, s := range sources {
		for _, m := range s.read() {
			if s.prefix != "" {
				m.Name = s.prefix + "." + m.Name
			}
			out = append(out, m)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// WriteJSON writes the snapshot as one sorted JSON object:
// {"metrics": {"name": value, ...}}. Integral values render without a
// fractional part.
func (r *Registry) WriteJSON(w io.Writer) error {
	snap := r.Snapshot()
	var b strings.Builder
	b.WriteString("{\n  \"metrics\": {\n")
	for i, m := range snap {
		key, err := json.Marshal(m.Name)
		if err != nil {
			return err
		}
		fmt.Fprintf(&b, "    %s: %s", key, formatValue(m.Value))
		if i < len(snap)-1 {
			b.WriteString(",")
		}
		b.WriteString("\n")
	}
	b.WriteString("  }\n}\n")
	_, err := io.WriteString(w, b.String())
	return err
}

// WritePrometheus writes the snapshot in the Prometheus text exposition
// format (version 0.0.4): one gauge per metric, names sanitised to the
// Prometheus charset (every character outside [a-zA-Z0-9_:] becomes '_', a
// leading digit gains a '_' prefix), sorted by the original name. All
// metrics export as gauges: the registry cannot distinguish monotonic
// counters from instantaneous values, and a gauge is always safe to scrape.
func (r *Registry) WritePrometheus(w io.Writer) error {
	snap := r.Snapshot()
	var b strings.Builder
	for _, m := range snap {
		name := promName(m.Name)
		fmt.Fprintf(&b, "# TYPE %s gauge\n%s %s\n", name, name, formatValue(m.Value))
	}
	_, err := io.WriteString(w, b.String())
	return err
}

// promName maps a registry metric name onto the Prometheus name charset.
func promName(name string) string {
	var b strings.Builder
	b.Grow(len(name) + 1)
	for i := 0; i < len(name); i++ {
		c := name[i]
		switch {
		case c >= 'a' && c <= 'z' || c >= 'A' && c <= 'Z' || c == '_' || c == ':':
			b.WriteByte(c)
		case c >= '0' && c <= '9':
			if i == 0 {
				b.WriteByte('_')
			}
			b.WriteByte(c)
		default:
			b.WriteByte('_')
		}
	}
	return b.String()
}

// formatValue renders integral floats without a decimal point so counters
// stay readable (and JSON-exact for values within float64's integer range).
func formatValue(v float64) string {
	if v == float64(int64(v)) {
		return fmt.Sprintf("%d", int64(v))
	}
	return fmt.Sprintf("%g", v)
}

// unsupportedFields lists exported fields (dotted paths) whose kind the
// registry cannot export. A field tagged `metrics:"-"` is skipped: the
// owning package opted it out of flattening (typically to re-export it
// through a dynamic RegisterFunc section instead).
func unsupportedFields(t reflect.Type, path string) []string {
	var bad []string
	for i := 0; i < t.NumField(); i++ {
		f := t.Field(i)
		if !f.IsExported() || f.Tag.Get("metrics") == "-" {
			continue
		}
		name := f.Name
		if path != "" {
			name = path + "." + name
		}
		ft := f.Type
		if ft.Kind() == reflect.Array {
			ft = ft.Elem()
		}
		switch ft.Kind() {
		case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64,
			reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64,
			reflect.Float32, reflect.Float64, reflect.Bool:
		case reflect.Struct:
			bad = append(bad, unsupportedFields(ft, name)...)
		default:
			bad = append(bad, name)
		}
	}
	return bad
}

// appendStructMetrics flattens the exported fields of a struct value.
func appendStructMetrics(out []Metric, path string, v reflect.Value) []Metric {
	t := v.Type()
	for i := 0; i < t.NumField(); i++ {
		f := t.Field(i)
		if !f.IsExported() || f.Tag.Get("metrics") == "-" {
			continue
		}
		name := f.Name
		if path != "" {
			name = path + "." + name
		}
		out = appendValueMetrics(out, name, v.Field(i))
	}
	return out
}

func appendValueMetrics(out []Metric, name string, v reflect.Value) []Metric {
	switch v.Kind() {
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		out = append(out, Metric{Name: name, Value: float64(v.Int())})
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64:
		out = append(out, Metric{Name: name, Value: float64(v.Uint())})
	case reflect.Float32, reflect.Float64:
		out = append(out, Metric{Name: name, Value: v.Float()})
	case reflect.Bool:
		val := 0.0
		if v.Bool() {
			val = 1
		}
		out = append(out, Metric{Name: name, Value: val})
	case reflect.Array:
		for i := 0; i < v.Len(); i++ {
			out = appendValueMetrics(out, fmt.Sprintf("%s.%d", name, i), v.Index(i))
		}
	case reflect.Struct:
		out = appendStructMetrics(out, name, v)
	}
	return out
}
