// Package tune is the hint autotuner: it closes the compile→simulate→recompile
// loop the rest of the stack leaves open. Per @loopfrog loop it enumerates a
// variant space (hint selection on/off per loop, packing factor, SSB
// granule, packed-epoch target), prunes it up front with the linter's
// machine-readable LF2xx profitability notes, dedupes it through the
// run-cache fingerprint, and measures every surviving variant once with a
// full detailed run against one shared baseline. The static default variant
// (the anchor) is always measured, so the winner is never worse than the
// compiler's static selection.
package tune

import (
	"fmt"
	"sort"
	"strings"

	"loopfrog/internal/compiler"
	"loopfrog/internal/cpu"
	"loopfrog/internal/lint"
)

// Variant is one point of the search space: a per-loop hint mask plus the
// engine knobs the paper's sensitivity studies sweep (packing factor, SSB
// conflict granule, packed-epoch target size).
type Variant struct {
	ID int `json:"id"`
	// Deselect lists the source lines of @loopfrog loops compiled as plain
	// loops in this variant, sorted ascending. Empty = the compiler's static
	// selection.
	Deselect []int `json:"deselect,omitempty"`
	// PackFactor caps epoch packing; <= 1 disables packing. 0 is
	// normalised to 1.
	PackFactor int `json:"pack_factor"`
	// GranuleBytes overrides the SSB conflict-tracking granule; 0 = default.
	GranuleBytes int `json:"granule_bytes,omitempty"`
	// PackTarget overrides the packed-epoch target size; 0 = default (ROB).
	PackTarget int `json:"pack_target,omitempty"`
}

// Desc renders a short human-readable variant description.
func (v *Variant) Desc() string {
	var parts []string
	if len(v.Deselect) > 0 {
		lines := make([]string, len(v.Deselect))
		for i, l := range v.Deselect {
			lines[i] = fmt.Sprint(l)
		}
		parts = append(parts, "off="+strings.Join(lines, "+"))
	}
	if v.PackFactor <= 1 {
		parts = append(parts, "pack=off")
	} else {
		parts = append(parts, fmt.Sprintf("pack=%d", v.PackFactor))
	}
	if v.GranuleBytes > 0 {
		parts = append(parts, fmt.Sprintf("gran=%d", v.GranuleBytes))
	}
	if v.PackTarget > 0 {
		parts = append(parts, fmt.Sprintf("epoch=%d", v.PackTarget))
	}
	if len(parts) == 0 {
		return "static"
	}
	return strings.Join(parts, ",")
}

// Masked reports whether the variant compiles the loop at line as plain.
func (v *Variant) Masked(line int) bool {
	for _, l := range v.Deselect {
		if l == line {
			return true
		}
	}
	return false
}

// Config applies the variant's engine knobs to a base configuration.
func (v *Variant) Config(base cpu.Config) cpu.Config {
	cfg := base
	if v.PackFactor <= 1 {
		cfg.Pack.Enabled = false
	} else {
		cfg.Pack.Enabled = true
		cfg.Pack.MaxFactor = v.PackFactor
	}
	if v.GranuleBytes > 0 {
		cfg.SSB.GranuleBytes = v.GranuleBytes
	}
	if v.PackTarget > 0 {
		cfg.Pack.TargetSize = v.PackTarget
	}
	return cfg
}

// CompilerOpts returns the compile options selecting this variant's mask.
func (v *Variant) CompilerOpts() compiler.Options {
	if len(v.Deselect) == 0 {
		return compiler.Options{}
	}
	m := make(map[int]bool, len(v.Deselect))
	for _, l := range v.Deselect {
		m[l] = true
	}
	return compiler.Options{Deselect: m}
}

// Spec configures one autotuning search.
type Spec struct {
	// Program names the image; Source is its LoopLang source. The search
	// recompiles the source per variant, so workers only ever need the spec.
	Program string `json:"program"`
	Source  string `json:"source"`
	// PackFactors and Granules are the per-axis candidate values; defaults
	// DefaultPackFactors / DefaultGranules. PackTargets defaults to just the
	// base configuration's target.
	PackFactors []int `json:"pack_factors,omitempty"`
	Granules    []int `json:"granules,omitempty"`
	PackTargets []int `json:"pack_targets,omitempty"`
	// MaxVariants caps the enumerated space after pruning (default 64);
	// excess variants are dropped highest-ID first.
	MaxVariants int `json:"max_variants,omitempty"`
}

// DefaultMaxVariants caps the space after pruning when the spec sets no cap.
const DefaultMaxVariants = 64

// DefaultPackFactors returns the packing-factor axis: the headline cap, a
// moderate cap, and packing off (§6.5 evaluates both ends).
func DefaultPackFactors() []int { return []int{32, 4, 1} }

// DefaultGranules returns the SSB granule axis (Table 1 default plus one
// word-sized alternative, the paper's figure-10 sensitivity points).
func DefaultGranules() []int { return []int{4, 8} }

func (s Spec) withDefaults() Spec {
	if len(s.PackFactors) == 0 {
		s.PackFactors = DefaultPackFactors()
	}
	if len(s.Granules) == 0 {
		s.Granules = DefaultGranules()
	}
	if len(s.PackTargets) == 0 {
		s.PackTargets = []int{0}
	}
	if s.MaxVariants <= 0 {
		s.MaxVariants = DefaultMaxVariants
	}
	return s
}

// Validate checks a spec as submitted over the wire.
func (s Spec) Validate() error {
	if s.Source == "" {
		return fmt.Errorf("tune: spec has no source")
	}
	if s.MaxVariants < 0 {
		return fmt.Errorf("tune: negative max_variants")
	}
	for _, pf := range s.PackFactors {
		if pf < 0 {
			return fmt.Errorf("tune: negative pack factor %d", pf)
		}
	}
	for _, g := range s.Granules {
		if g < 0 {
			return fmt.Errorf("tune: negative granule %d", g)
		}
	}
	return nil
}

// Pruned records one variant removed before evaluation, with the
// machine-readable lint rule that removed it.
type Pruned struct {
	Variant Variant `json:"variant"`
	Rule    string  `json:"rule"`
}

// loopNotes is the per-loop digest of the linter's LF2xx payloads, joined to
// source loops through the hint line provenance the compiler emits.
type loopNotes struct {
	short     bool  // LF201: epoch below spawn/checkpoint cost
	invariant bool  // LF202: loop-invariant store base
	minStride int64 // LF202: smallest flagged sub-granule stride (0 = none)
}

// lintNotes compiles the static-default image, lints it, and returns the
// per-loop-line digest of LF2xx findings.
func lintNotes(spec Spec) (map[int]*loopNotes, []compiler.LoopSite, error) {
	prog, _, err := compiler.Compile(spec.Program, spec.Source)
	if err != nil {
		return nil, nil, fmt.Errorf("tune: compile static: %w", err)
	}
	sites, err := compiler.Loops(spec.Source)
	if err != nil {
		return nil, nil, err
	}
	rep := lint.Run(prog, lint.Options{})
	byRegion := make(map[int64]int) // region ID -> source line
	for _, r := range rep.Regions {
		byRegion[r.ID] = r.Line
	}
	notes := make(map[int]*loopNotes)
	note := func(line int) *loopNotes {
		n := notes[line]
		if n == nil {
			n = &loopNotes{}
			notes[line] = n
		}
		return n
	}
	for i := range rep.Diags {
		d := &rep.Diags[i]
		line, ok := byRegion[d.Region]
		if !ok || line == 0 {
			continue
		}
		switch d.Code {
		case lint.CodeShortEpoch:
			note(line).short = true
		case lint.CodeInvariantStore:
			n := note(line)
			if d.Data != nil && d.Data.StrideBytes != 0 {
				s := d.Data.StrideBytes
				if s < 0 {
					s = -s
				}
				if n.minStride == 0 || s < n.minStride {
					n.minStride = s
				}
			} else {
				n.invariant = true
			}
		}
	}
	return notes, sites, nil
}

// enumerate builds the variant space for the program's selected loops. The
// anchor (static default: empty mask, default knobs) is always variant 0.
// Masks enumerate all subsets up to 3 loops; beyond that the space is
// restricted to all-on, each-single-off and all-off. Knob axes only multiply
// masks that keep at least one loop hinted — with every loop off they are
// inert and would only repeat one measurement.
func enumerate(spec Spec, sites []compiler.LoopSite) []Variant {
	var lines []int
	for _, s := range sites {
		if s.Selected {
			lines = append(lines, s.Line)
		}
	}
	sort.Ints(lines)

	var masks [][]int
	if n := len(lines); n <= 3 {
		for bits := 0; bits < 1<<n; bits++ {
			var m []int
			for i := 0; i < n; i++ {
				if bits&(1<<i) != 0 {
					m = append(m, lines[i])
				}
			}
			masks = append(masks, m)
		}
	} else {
		masks = append(masks, nil) // all on
		for _, l := range lines {
			masks = append(masks, []int{l})
		}
		all := append([]int(nil), lines...)
		masks = append(masks, all)
	}
	// Full-mask (everything off) first needs no knob sweep; order masks by
	// size then value so the anchor's empty mask comes first.
	sort.Slice(masks, func(i, j int) bool {
		if len(masks[i]) != len(masks[j]) {
			return len(masks[i]) < len(masks[j])
		}
		for k := range masks[i] {
			if masks[i][k] != masks[j][k] {
				return masks[i][k] < masks[j][k]
			}
		}
		return false
	})

	var out []Variant
	addV := func(v Variant) {
		v.ID = len(out)
		out = append(out, v)
	}
	// Variant 0: the anchor. Default knobs = zero values resolved by
	// Variant.Config against the base configuration.
	addV(Variant{PackFactor: defaultAnchorPack})
	for _, m := range masks {
		allOff := len(m) == len(lines) && len(lines) > 0
		if allOff {
			addV(Variant{Deselect: m, PackFactor: 1})
			continue
		}
		for _, pf := range spec.PackFactors {
			for _, g := range spec.Granules {
				for _, pt := range spec.PackTargets {
					v := Variant{Deselect: m, PackFactor: pf, GranuleBytes: g, PackTarget: pt}
					if isAnchor(v, len(m) == 0) {
						continue // already added as variant 0
					}
					addV(v)
				}
			}
		}
	}
	return out
}

// defaultAnchorPack mirrors core.DefaultPackConfig's MaxFactor so the anchor
// variant reproduces the static default engine exactly.
const defaultAnchorPack = 32

func isAnchor(v Variant, emptyMask bool) bool {
	return emptyMask && v.PackFactor == defaultAnchorPack &&
		(v.GranuleBytes == 0 || v.GranuleBytes == 4) && v.PackTarget == 0
}

// prune applies the LF2xx rules to the enumerated space. The anchor (ID 0)
// is never pruned: it is the control arm the final ranking compares against.
func prune(vars []Variant, notes map[int]*loopNotes) (kept []Variant, pruned []Pruned) {
	for _, v := range vars {
		if v.ID == 0 {
			kept = append(kept, v)
			continue
		}
		rule := pruneRule(&v, notes)
		if rule == "" {
			kept = append(kept, v)
		} else {
			pruned = append(pruned, Pruned{Variant: v, Rule: rule})
		}
	}
	return kept, pruned
}

func pruneRule(v *Variant, notes map[int]*loopNotes) string {
	for line, n := range notes {
		if v.Masked(line) {
			continue // loop off: its notes cannot fire
		}
		if n.invariant {
			return fmt.Sprintf("LF202: loop at line %d has a loop-invariant store; every epoch pair conflicts", line)
		}
		if n.short && v.PackFactor <= 1 {
			return fmt.Sprintf("LF201: loop at line %d is below spawn cost and the variant does not pack", line)
		}
		if s := n.minStride; s > 0 {
			g := int64(v.GranuleBytes)
			if g == 0 {
				g = 4
			}
			if g > s {
				return fmt.Sprintf("LF202: loop at line %d stores with %d-byte stride; %d-byte granule guarantees conflicts", line, s, g)
			}
		}
	}
	return ""
}
