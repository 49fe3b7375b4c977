package fabric

import (
	"fmt"
	"sync"
	"time"
)

// WorkerState is a worker's position in the failure-detection state machine.
//
// The escalation path is Alive → Suspect → Probation → Dead, driven by a
// phi-accrual-style suspicion value: instead of a binary timeout, the
// detector tracks the inter-arrival times of successful readiness probes and
// computes phi = (time since the last success) / (mean successful interval).
// A worker that answers every probe holds phi near 1; a worker that stops
// answering accrues suspicion continuously, and each threshold crossing
// escalates the state — so a slow worker is treated gently (routed around)
// long before it is declared dead (requeued away from).
//
//	Alive      full member: routed to, on the ring.
//	Suspect    phi ≥ suspectPhi: no new dispatches (jobs that would pick it
//	           go to the next Alive worker in ring order), stays on the
//	           ring, in-flight jobs continue.
//	Probation  phi ≥ probationPhi: off the ring, in-flight jobs still
//	           allowed to finish. Also the state a recovering or draining
//	           (readyz 503) worker waits in.
//	Dead       phi ≥ deadPhi or probeHardFailures consecutive hard probe
//	           failures: off the ring, in-flight jobs cancelled and requeued
//	           exactly once.
//
// Recovery: a successful probe from Suspect or Probation restores Alive
// immediately (the worker proved itself before being declared dead). A Dead
// worker must first answer rejoinProbes consecutive probes — it re-enters
// through Probation and is only then restored to the ring, so a flapping
// worker cannot oscillate jobs on and off its arc.
type WorkerState int32

const (
	StateAlive WorkerState = iota
	StateSuspect
	StateProbation
	StateDead
)

func (s WorkerState) String() string {
	switch s {
	case StateAlive:
		return "alive"
	case StateSuspect:
		return "suspect"
	case StateProbation:
		return "probation"
	case StateDead:
		return "dead"
	default:
		return fmt.Sprintf("WorkerState(%d)", int32(s))
	}
}

// DetectorConfig tunes one worker's failure detector. The zero value takes
// every documented default.
type DetectorConfig struct {
	// MinInterval floors the mean-interval estimate so a burst of fast
	// probes cannot make phi explode on the first hiccup. <= 0 means 100ms.
	MinInterval time.Duration
}

func (c DetectorConfig) withDefaults() DetectorConfig {
	if c.MinInterval <= 0 {
		c.MinInterval = 100 * time.Millisecond
	}
	return c
}

const (
	// suspectPhi, probationPhi and deadPhi are the escalation thresholds on
	// the suspicion value.
	suspectPhi   = 3
	probationPhi = 5
	deadPhi      = 8
	// probeHardFailures short-circuits to Dead after this many consecutive
	// hard probe failures (connection refused — the process is gone, no need
	// to accrue).
	probeHardFailures = 4
	// rejoinProbes is how many consecutive successful probes a Dead worker
	// needs before it re-enters service through Probation.
	rejoinProbes = 3
)

// detectorWindow is how many successful inter-arrival samples the mean is
// computed over.
const detectorWindow = 16

// Detector is one worker's phi-accrual-style failure detector. Methods take
// an explicit clock so the state machine is testable without sleeping; the
// prober passes time.Now(). Safe for concurrent use.
type Detector struct {
	cfg DetectorConfig

	mu        sync.Mutex
	state     WorkerState
	lastOK    time.Time
	intervals [detectorWindow]float64 // seconds between successful probes
	nsamples  int
	nextslot  int
	hardFails int
	consecOK  int
}

// NewDetector returns a detector in the Alive state whose clock starts at
// now.
func NewDetector(cfg DetectorConfig, now time.Time) *Detector {
	return &Detector{cfg: cfg.withDefaults(), state: StateAlive, lastOK: now}
}

// State returns the current state.
func (d *Detector) State() WorkerState {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.state
}

// Phi returns the current suspicion value: elapsed time since the last
// successful probe over the mean successful inter-arrival time. ~1 for a
// healthy worker, growing without bound for a silent one.
func (d *Detector) Phi(now time.Time) float64 {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.phiLocked(now)
}

func (d *Detector) phiLocked(now time.Time) float64 {
	mean := d.meanIntervalLocked()
	elapsed := now.Sub(d.lastOK).Seconds()
	if elapsed < 0 {
		elapsed = 0
	}
	return elapsed / mean
}

func (d *Detector) meanIntervalLocked() float64 {
	floor := d.cfg.MinInterval.Seconds()
	if d.nsamples == 0 {
		return floor
	}
	var sum float64
	for i := 0; i < d.nsamples; i++ {
		sum += d.intervals[i]
	}
	mean := sum / float64(d.nsamples)
	if mean < floor {
		mean = floor
	}
	return mean
}

// ObserveSuccess records a successful readiness probe and returns the (new
// state, whether it changed). Suspect and Probation recover to Alive at
// once; Dead counts consecutive successes and re-enters through Probation.
func (d *Detector) ObserveSuccess(now time.Time) (WorkerState, bool) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if iv := now.Sub(d.lastOK).Seconds(); iv > 0 {
		d.intervals[d.nextslot] = iv
		d.nextslot = (d.nextslot + 1) % detectorWindow
		if d.nsamples < detectorWindow {
			d.nsamples++
		}
	}
	d.lastOK = now
	d.hardFails = 0
	prev := d.state
	switch d.state {
	case StateSuspect, StateProbation:
		d.state = StateAlive
		d.consecOK = 0
	case StateDead:
		d.consecOK++
		if d.consecOK >= rejoinProbes {
			d.state = StateProbation
			d.consecOK = 0
		}
	default:
		d.consecOK = 0
	}
	return d.state, d.state != prev
}

// ObserveNotReady records a 503 readiness answer: the worker is alive but
// draining, so it parks in Probation (no new work, in-flight continues)
// without accruing death suspicion. The probe still counts as contact.
func (d *Detector) ObserveNotReady(now time.Time) (WorkerState, bool) {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.lastOK = now
	d.hardFails = 0
	d.consecOK = 0
	prev := d.state
	if d.state == StateAlive || d.state == StateSuspect {
		d.state = StateProbation
	}
	return d.state, d.state != prev
}

// ObserveFailure records a failed probe (timeout or connection error; hard
// reports connection-refused-style failures that short-circuit the accrual)
// and returns the (new state, whether it changed). State only escalates
// here; recovery is ObserveSuccess's job.
func (d *Detector) ObserveFailure(now time.Time, hard bool) (WorkerState, bool) {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.consecOK = 0
	if hard {
		d.hardFails++
	}
	prev := d.state
	phi := d.phiLocked(now)
	next := prev
	switch {
	case d.hardFails >= probeHardFailures || phi >= deadPhi:
		next = StateDead
	case phi >= probationPhi:
		next = StateProbation
	case phi >= suspectPhi:
		next = StateSuspect
	}
	// Escalate only: a Dead worker cannot fall back to Suspect because phi
	// shrank (it can only rejoin through ObserveSuccess).
	if next > d.state {
		d.state = next
	}
	return d.state, d.state != prev
}
