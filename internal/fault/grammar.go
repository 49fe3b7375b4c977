package fault

import (
	"fmt"
	"math/rand"
	"sort"
	"strconv"
	"strings"
)

// KindDef is one injectable kind of a fault-spec grammar.
type KindDef struct {
	Name string
	// Prob is the kind's default probability per consultation.
	Prob float64
	// InAll reports whether "all" turns the kind on.
	InAll bool
}

// Grammar is a fault-spec grammar over one kind table:
//
//	spec  := "" | "none" | entry ("," entry)*
//	entry := name [ "=" probability ]     probability in (0, 1]
//	name  := "all" | a kind name
//
// "all" enables the InAll kinds at their default probabilities; explicit
// entries may then override individual kinds ("all,kill=0.01"). Both the
// machine's fault plan and the fabric's transport chaos parse with one.
type Grammar struct {
	// Pkg prefixes error messages; Noun, when set, qualifies the spec and
	// its kinds in them ("chaos spec", "chaos kind").
	Pkg, Noun string
	Kinds     []KindDef
	// LaneBase offsets the kinds' stream lanes, so grammars that share a
	// base seed still draw independent streams.
	LaneBase int
}

// Names lists "all" and every kind's name.
func (g *Grammar) Names() []string {
	names := []string{"all"}
	for _, k := range g.Kinds {
		names = append(names, k.Name)
	}
	return names
}

// kind resolves a kind name to its index.
func (g *Grammar) kind(name string) (int, bool) {
	for i, k := range g.Kinds {
		if k.Name == name {
			return i, true
		}
	}
	return 0, false
}

// Parse builds the streams of a spec. An empty or "none" spec returns nil:
// no injection.
func (g *Grammar) Parse(spec string, seed int64) (*Streams, error) {
	spec = strings.TrimSpace(spec)
	if spec == "" || spec == "none" {
		return nil, nil
	}
	noun := ""
	if g.Noun != "" {
		noun = g.Noun + " "
	}
	n := len(g.Kinds)
	s := &Streams{g: g, spec: spec, seed: seed, prob: make([]float64, n), rng: make([]*rand.Rand, n), counts: make([]uint64, n)}
	for _, entry := range strings.Split(spec, ",") {
		entry = strings.TrimSpace(entry)
		if entry == "" {
			return nil, fmt.Errorf("%s: empty entry in %sspec %q", g.Pkg, noun, spec)
		}
		name, probStr, hasProb := strings.Cut(entry, "=")
		name = strings.TrimSpace(name)
		if name == "all" {
			if hasProb {
				return nil, fmt.Errorf("%s: %q takes no probability (override kinds individually)", g.Pkg, entry)
			}
			for k, def := range g.Kinds {
				if def.InAll {
					s.prob[k] = def.Prob
				}
			}
			continue
		}
		k, ok := g.kind(name)
		if !ok {
			return nil, fmt.Errorf("%s: unknown %skind %q (want %s)", g.Pkg, noun, name, strings.Join(g.Names(), ", "))
		}
		prob := g.Kinds[k].Prob
		if hasProb {
			v, err := strconv.ParseFloat(strings.TrimSpace(probStr), 64)
			if err != nil {
				return nil, fmt.Errorf("%s: bad probability in %q: %v", g.Pkg, entry, err)
			}
			if v <= 0 || v > 1 {
				return nil, fmt.Errorf("%s: probability in %q outside (0,1]", g.Pkg, entry)
			}
			prob = v
		}
		s.prob[k] = prob
	}
	for k, p := range s.prob {
		if p > 0 {
			s.rng[k] = rand.New(rand.NewSource(streamSeed(seed, g.LaneBase+k)))
		}
	}
	return s, nil
}

// streamSeed derives an independent stream seed from a base seed and a
// lane index (splitmix64 finalizer).
func streamSeed(seed int64, lane int) int64 {
	z := uint64(seed) + (uint64(lane)+1)*0x9e3779b97f4a7c15
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return int64(z ^ (z >> 31))
}

// Streams is a parsed spec: per-kind probabilities, seeded random streams
// and fire counters. Its streams advance as it is consulted and are never
// rewound. Not safe for concurrent use.
type Streams struct {
	g      *Grammar
	spec   string
	seed   int64
	prob   []float64
	rng    []*rand.Rand
	counts []uint64
}

// Spec returns the spec string the streams were parsed from.
func (s *Streams) Spec() string { return s.spec }

// Seed returns the base seed.
func (s *Streams) Seed() int64 { return s.seed }

// Roll draws one decision for kind k, counting fires.
func (s *Streams) Roll(k int) bool {
	if s.prob[k] <= 0 {
		return false
	}
	if s.prob[k] < 1 && s.rng[k].Float64() >= s.prob[k] {
		return false
	}
	s.counts[k]++
	return true
}

// Rand is kind k's stream, for the draws that shape a fired fault. It is
// nil unless the kind is active.
func (s *Streams) Rand(k int) *rand.Rand { return s.rng[k] }

// Fire counts a fire of kind k decided outside Roll.
func (s *Streams) Fire(k int) { s.counts[k]++ }

// Counts returns the per-kind fire counters, keyed by name, for kinds that
// fired at least once.
func (s *Streams) Counts() map[string]uint64 {
	out := make(map[string]uint64)
	for k, c := range s.counts {
		if c > 0 {
			out[s.g.Kinds[k].Name] = c
		}
	}
	return out
}

// Summary renders the spec and its fire counters under label, as
// "label[spec seed=N]: kind:count ...".
func (s *Streams) Summary(label string) string {
	var parts []string
	for name, c := range s.Counts() {
		parts = append(parts, fmt.Sprintf("%s:%d", name, c))
	}
	sort.Strings(parts)
	if len(parts) == 0 {
		return fmt.Sprintf("%s[%s seed=%d]: none fired", label, s.spec, s.seed)
	}
	return fmt.Sprintf("%s[%s seed=%d]: %s", label, s.spec, s.seed, strings.Join(parts, " "))
}
