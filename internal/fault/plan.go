// Package fault implements deterministic speculation fault injection for the
// LoopFrog machine: a seeded Plan decides, reproducibly, when to force the
// model's recovery paths (conflict aborts, SSB-overflow squashes, threadlet
// kills, pack-prediction poisoning, branch-mispredict storms), and Check
// compares a run's final architectural state with the sequential reference
// interpreter. The simulation harness (internal/sim) installs a plan on the
// machines it builds; the chaos matrix (experiments.Chaos) checks every
// injected run it makes there.
//
// The paper's safety argument (§3.1–§3.2) is that speculation is
// performance-only: no squash or abort may change architectural state. The
// plan turns that argument into an adversarial workout — and the one
// deliberately unsafe kind, a suppressed real conflict (ConflictMiss), is
// used to prove the checker itself has teeth: it must surface as a
// divergence, never as a silent pass.
package fault

import "fmt"

// Kind enumerates the injectable fault kinds.
type Kind int

// Fault kinds. All but ConflictMiss are safe: the machine must recover to
// exact sequential semantics. ConflictMiss deliberately breaks the conflict
// detector (a false negative) and must be caught by the differential checker.
const (
	Conflict     Kind = iota // forced false-positive conflict abort
	ConflictMiss             // suppressed real conflict (false negative, unsafe)
	Overflow                 // forced SSB-overflow squash on a speculative drain
	Kill                     // recycle a random speculative threadlet
	Poison                   // corrupt a packed-spawn IV prediction (§4.3)
	Mispredict               // invert a predicted branch direction
	PanicKind                // deliberate panic, for crash-containment tests
	numKinds
)

// grammar is the machine's fault-spec grammar. Default probabilities are
// tuned so a default-window watchdog never trips on the chaos suite: faults
// arrive often enough to exercise every recovery path, rarely enough that
// the machine keeps making architectural progress. "all" enables every kind
// whose injection the machine must absorb without architectural effect: not
// the unsafe ConflictMiss, nor the harness-only PanicKind.
var grammar = Grammar{Pkg: "fault", Kinds: []KindDef{
	Conflict:     {"conflict", 0.02, true},
	ConflictMiss: {"conflict-miss", 1.0, false},
	Overflow:     {"overflow", 0.01, true},
	Kill:         {"kill", 0.0005, true},
	Poison:       {"poison", 0.25, true},
	Mispredict:   {"mispredict", 0.02, true},
	PanicKind:    {"panic", 0.00002, false},
}}

func (k Kind) String() string {
	if k < 0 || k >= numKinds {
		return fmt.Sprintf("Kind(%d)", int(k))
	}
	return grammar.Kinds[k].Name
}

// SafeKinds returns the kinds the "all" spec expands to.
func SafeKinds() []Kind {
	var out []Kind
	for k, def := range grammar.Kinds {
		if def.InAll {
			out = append(out, Kind(k))
		}
	}
	return out
}

// Plan is a deterministic fault-injection plan: per-kind probabilities with
// per-kind seeded random streams, implementing cpu.FaultInjector
// structurally. A Plan is single-run state — its streams advance with the
// machine and are never rewound — and is not safe for concurrent use. Parse
// the spec again for a rerun.
type Plan struct {
	*Streams
}

// Parse builds a plan from a fault spec in the Grammar syntax, over the
// kinds "conflict", "conflict-miss", "overflow", "kill", "poison",
// "mispredict" and "panic". "all" enables every safe kind at its default
// probability; explicit entries may then override individual kinds
// ("all,kill=0.01"). An empty or "none" spec returns a nil plan — no
// injection, and cpu.Machine pays nothing.
func Parse(spec string, seed int64) (*Plan, error) {
	s, err := grammar.Parse(spec, seed)
	if s == nil || err != nil {
		return nil, err
	}
	return &Plan{s}, nil
}

// MustParse is Parse that panics on error, for tests.
func MustParse(spec string, seed int64) *Plan {
	p, err := Parse(spec, seed)
	if err != nil {
		panic(err)
	}
	return p
}

// KindNames lists every kind's spec name plus "all".
func KindNames() []string { return grammar.Names() }

// Active reports whether a kind can fire under this plan.
func (p *Plan) Active(k Kind) bool { return p != nil && p.prob[k] > 0 }

// Count returns how many times kind k has fired so far.
func (p *Plan) Count(k Kind) uint64 { return p.counts[k] }

// String summarises the plan and its injection counters.
func (p *Plan) String() string {
	if p == nil {
		return "fault: none"
	}
	return p.Summary("fault")
}

// roll draws one decision for kind k, counting fires.
func (p *Plan) roll(k Kind) bool { return p.Roll(int(k)) }

// The methods below implement cpu.FaultInjector. The interface is satisfied
// structurally — cpu declares it over primitive types precisely so injector
// implementations need no dependency on the machine's internals.

// ForceConflict reports whether to abort a clean store as a conflict.
func (p *Plan) ForceConflict(now int64) bool { return p.roll(Conflict) }

// SuppressConflict reports whether to drop a real conflict squash.
func (p *Plan) SuppressConflict(now int64) bool { return p.roll(ConflictMiss) }

// ForceOverflow reports whether to squash a speculative drain as an overflow.
func (p *Plan) ForceOverflow(now int64) bool { return p.roll(Overflow) }

// KillThreadlet picks a speculative threadlet (index among nspec, 0 = oldest
// successor) to recycle, or ok=false.
func (p *Plan) KillThreadlet(now int64, nspec int) (int, bool) {
	if !p.roll(Kill) {
		return 0, false
	}
	return p.rng[Kill].Intn(nspec), true
}

// PoisonPack perturbs a packed-spawn IV prediction. The perturbation is a
// small signed delta (occasionally huge), exercising both the silent-repair
// and squash arms of the §4.3 verification — and, via wild addresses, the
// deferred speculative memory-fault path.
func (p *Plan) PoisonPack(now int64, reg int, val uint64) (uint64, bool) {
	if !p.roll(Poison) {
		return val, false
	}
	r := p.rng[Poison]
	switch r.Intn(4) {
	case 0:
		return val + uint64(1+r.Intn(64)), true
	case 1:
		return val - uint64(1+r.Intn(64)), true
	case 2:
		return val ^ (1 << uint(r.Intn(16))), true
	default:
		return r.Uint64(), true
	}
}

// FlipBranch reports whether to invert a predicted branch direction.
func (p *Plan) FlipBranch(now int64, pc int) bool { return p.roll(Mispredict) }

// Panic reports whether to panic the machine deliberately.
func (p *Plan) Panic(now int64) bool { return p.roll(PanicKind) }
