package cpu

import (
	"fmt"
	"strings"
)

// Forward-progress watchdog. The cycle limit (ErrCycleLimit) is a blunt
// backstop: a livelocked run burns its entire 200M-cycle budget before
// anything notices. The watchdog instead detects the three livelock shapes
// the speculation machinery can produce — an architectural threadlet that
// stops committing, an epoch that never retires while successors wait, and a
// squash/restart loop stuck on one epoch start PC — and fails fast with a
// typed ProgressError carrying a diagnostic snapshot of the machine.

// WatchdogConfig tunes the forward-progress watchdog. The zero value is
// normalised to the defaults by NewMachine. The checks always run; a test
// that needs MaxCycles to bound a run sets the thresholds above it.
type WatchdogConfig struct {
	// NoCommitWindow is the maximum number of cycles the architectural
	// threadlet may go without committing an instruction.
	NoCommitWindow int64
	// EpochWindow is the maximum number of cycles the architectural
	// threadlet may stay architectural while speculative successors exist —
	// an epoch that never reattaches (e.g. an infinite loop inside a detach
	// region) trips this long before the cycle limit.
	EpochWindow int64
	// RestartLimit is the maximum number of consecutive squash-restarts of
	// the same epoch start PC without an intervening threadlet retire.
	RestartLimit int
}

// Watchdog default thresholds. NoCommitWindow preserves the historical
// hard-coded no-progress bound; EpochWindow and RestartLimit sit orders of
// magnitude above anything the benchmark suite produces (epochs are loop
// iterations, thousands of cycles at most) while staying far below the
// 200M-cycle budget.
const (
	DefaultNoCommitWindow = 1_000_000
	DefaultEpochWindow    = 2_000_000
	DefaultRestartLimit   = 4096
)

// Normalized fills zero fields with the default thresholds. NewMachine
// applies it; sim.CanonicalConfig applies it too so a zero-value and an
// explicitly-defaulted watchdog share one run-cache key.
func (w WatchdogConfig) Normalized() WatchdogConfig {
	if w.NoCommitWindow == 0 {
		w.NoCommitWindow = DefaultNoCommitWindow
	}
	if w.EpochWindow == 0 {
		w.EpochWindow = DefaultEpochWindow
	}
	if w.RestartLimit == 0 {
		w.RestartLimit = DefaultRestartLimit
	}
	return w
}

// ProgressKind classifies a watchdog trip.
type ProgressKind int

// Watchdog trip kinds.
const (
	// ProgressNoCommit: the architectural threadlet committed nothing for
	// NoCommitWindow cycles — always a model bug, never a workload property.
	ProgressNoCommit ProgressKind = iota
	// ProgressStuckEpoch: the architectural threadlet kept speculative
	// successors waiting for EpochWindow cycles without retiring its epoch
	// (an epoch that never reattaches).
	ProgressStuckEpoch
	// ProgressSquashLivelock: the same epoch start PC was squash-restarted
	// RestartLimit times in a row without a retire in between.
	ProgressSquashLivelock
)

// String names the trip kind.
func (k ProgressKind) String() string {
	switch k {
	case ProgressNoCommit:
		return "no-commit"
	case ProgressStuckEpoch:
		return "stuck-epoch"
	case ProgressSquashLivelock:
		return "squash-livelock"
	}
	return "unknown"
}

// ContextSnap is one threadlet context's state in a diagnostic snapshot.
type ContextSnap struct {
	Tid      int
	Live     bool
	Spec     bool // live and not architectural
	FetchPC  int
	ROBHead  int // PC of the oldest in-flight instruction, -1 if none
	ROBInsts int
	DrainLen int
	Region   int64
	Detached bool
	Stalled  bool // drain stalled on SSB overflow or a deferred mem fault
}

// Snapshot is the machine state captured when the watchdog trips, for
// diagnosis without re-running the simulation.
type Snapshot struct {
	Cycle          int64
	LastArchCommit int64
	// SpecSince is the cycle the current architectural epoch acquired its
	// speculative successors (reset at every retire/promote).
	SpecSince int64
	ArchTid   int
	ArchInsts uint64
	Order     []int
	Contexts  []ContextSnap
	// DominantStall is the commit-slot class (stall.go) that consumed the
	// most slots so far — the run's dominant bottleneck.
	DominantStall string
	// RestartPC/RestartStreak describe the squash-restart loop for
	// ProgressSquashLivelock trips.
	RestartPC     int
	RestartStreak int
}

// String renders the snapshot as a multi-line diagnostic.
func (s *Snapshot) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "cycle %d  arch-tid %d  arch-insts %d  last-commit %d  spec-since %d  dominant-stall %s\n",
		s.Cycle, s.ArchTid, s.ArchInsts, s.LastArchCommit, s.SpecSince, s.DominantStall)
	fmt.Fprintf(&b, "epoch order %v", s.Order)
	if s.RestartStreak > 0 {
		fmt.Fprintf(&b, "  restart streak %d @ pc %d", s.RestartStreak, s.RestartPC)
	}
	b.WriteByte('\n')
	for _, c := range s.Contexts {
		state := "idle"
		switch {
		case c.Live && c.Spec:
			state = "spec"
		case c.Live:
			state = "arch"
		}
		fmt.Fprintf(&b, "  t%d %-4s fetch-pc %-6d rob-head %-6d rob %-4d drain %-3d region %-4d",
			c.Tid, state, c.FetchPC, c.ROBHead, c.ROBInsts, c.DrainLen, c.Region)
		if c.Detached {
			b.WriteString(" detached")
		}
		if c.Stalled {
			b.WriteString(" drain-stalled")
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// ProgressError is the typed watchdog failure: the machine stopped making
// forward progress long before MaxCycles. It wraps ErrNoProgress so existing
// errors.Is checks keep working, and carries a Snapshot for diagnosis.
type ProgressError struct {
	Kind     ProgressKind
	Cycle    int64
	Snapshot Snapshot
}

func (e *ProgressError) Error() string {
	switch e.Kind {
	case ProgressStuckEpoch:
		return fmt.Sprintf("cpu: watchdog: epoch stuck at cycle %d — architectural threadlet %d held %d speculative successor(s) for %d cycles without retiring",
			e.Cycle, e.Snapshot.ArchTid, len(e.Snapshot.Order)-1, e.Cycle-e.Snapshot.SpecSince)
	case ProgressSquashLivelock:
		return fmt.Sprintf("cpu: watchdog: squash livelock at cycle %d — epoch start pc %d restarted %d times without a retire",
			e.Cycle, e.Snapshot.RestartPC, e.Snapshot.RestartStreak)
	}
	return fmt.Sprintf("cpu: watchdog: no architectural commit since cycle %d (now %d)",
		e.Snapshot.LastArchCommit, e.Cycle)
}

// Unwrap makes errors.Is(err, ErrNoProgress) match every watchdog trip.
func (e *ProgressError) Unwrap() error { return ErrNoProgress }

// progressError builds a ProgressError of the given kind at the current
// cycle, capturing the diagnostic snapshot.
func (m *Machine) progressError(kind ProgressKind) *ProgressError {
	return &ProgressError{Kind: kind, Cycle: m.now, Snapshot: m.snapshot()}
}

// snapshot captures the diagnostic machine state for ProgressError.
func (m *Machine) snapshot() Snapshot {
	s := Snapshot{
		Cycle:          m.now,
		LastArchCommit: m.lastArchCommit,
		SpecSince:      m.specSince,
		ArchTid:        m.archTid(),
		ArchInsts:      m.stats.ArchInsts,
		Order:          append([]int(nil), m.order...),
		DominantStall:  m.dominantStall(),
		RestartPC:      m.lastRestartPC,
		RestartStreak:  m.restartStreak,
	}
	for _, t := range m.threads {
		c := ContextSnap{
			Tid:      t.id,
			Live:     t.live,
			Spec:     t.live && m.archTid() != t.id,
			FetchPC:  t.fetchPC,
			ROBHead:  -1,
			ROBInsts: t.rob.len(),
			DrainLen: t.drain.len(),
			Region:   t.activeRegion,
			Detached: t.detached,
			Stalled:  t.overflowStalled || t.drainFaulted,
		}
		if t.rob.len() > 0 {
			c.ROBHead = m.at(t.rob.front()).pc
		}
		s.Contexts = append(s.Contexts, c)
	}
	return s
}

// dominantStall returns the name of the commit-slot class with the highest
// count so far.
func (m *Machine) dominantStall() string {
	best := 0
	for i := 1; i < NumSlotClasses; i++ {
		if m.stats.CommitSlots[i] > m.stats.CommitSlots[best] {
			best = i
		}
	}
	return SlotClass(best).String()
}

// noteRestart feeds the squash-livelock detector: restart of the same epoch
// start PC extends the streak; any other PC resets it. When the streak
// exceeds the limit the error is latched for Run to return (squashes happen
// deep inside pipeline stages, so the trip is deferred to the cycle edge).
func (m *Machine) noteRestart(startPC int) {
	if startPC == m.lastRestartPC {
		m.restartStreak++
	} else {
		m.lastRestartPC = startPC
		m.restartStreak = 1
	}
	if m.restartStreak >= m.wd.RestartLimit && m.wdErr == nil {
		m.wdErr = m.progressError(ProgressSquashLivelock)
	}
}
