package fabric

import (
	"fmt"
	"sync"
	"time"
)

// WorkerState is a worker's position in the failure-detection state machine.
//
// The detector's clock is silence: the time since the worker last answered a
// readiness probe, counted in probe intervals. A worker that answers every
// probe is never more than about one interval silent; one that stops
// answering is taken out of routing after probationSilence intervals and
// declared dead after deadSilence, so a slow worker is routed around long
// before its in-flight jobs are requeued away from it.
//
//	Alive      routed to.
//	Probation  silent for probationSilence intervals, or answering readyz
//	           with 503 (draining or recovering): no new dispatches, in-flight
//	           jobs continue.
//	Dead       silent for deadSilence intervals, or probeHardFailures
//	           consecutive hard probe failures: in-flight jobs are cancelled
//	           and requeued exactly once.
//
// Recovery: a successful probe from Probation restores Alive at once. A Dead
// worker must first answer rejoinProbes consecutive probes, which take it to
// Probation; the next success makes it Alive, so a flapping worker cannot
// oscillate jobs on and off.
type WorkerState int32

const (
	StateAlive WorkerState = iota
	StateProbation
	StateDead
)

func (s WorkerState) String() string {
	switch s {
	case StateAlive:
		return "alive"
	case StateProbation:
		return "probation"
	case StateDead:
		return "dead"
	default:
		return fmt.Sprintf("WorkerState(%d)", int32(s))
	}
}

const (
	// probationSilence and deadSilence are the escalation thresholds, in
	// probe intervals without an answer.
	probationSilence = 3
	deadSilence      = 8
	// probeHardFailures short-circuits to Dead after this many consecutive
	// hard probe failures (connection refused: the process is gone, no need
	// to wait out the silence). Any other probe outcome ends the streak.
	probeHardFailures = 4
	// rejoinProbes is how many consecutive successful probes a Dead worker
	// needs before it re-enters service through Probation.
	rejoinProbes = 3
)

// Detector is one worker's failure detector. Methods take an explicit clock
// so the state machine is testable without sleeping; the prober passes
// time.Now(). Safe for concurrent use.
type Detector struct {
	interval time.Duration // the probe interval: the unit of silence

	mu        sync.Mutex
	state     WorkerState
	lastOK    time.Time
	hardFails int
	consecOK  int
}

// NewDetector returns a detector in the Alive state for a worker probed every
// interval, whose clock starts at now.
func NewDetector(interval time.Duration, now time.Time) *Detector {
	return &Detector{interval: interval, state: StateAlive, lastOK: now}
}

// State returns the current state.
func (d *Detector) State() WorkerState {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.state
}

// Silence returns the time since the worker last answered a probe.
func (d *Detector) Silence(now time.Time) time.Duration {
	d.mu.Lock()
	defer d.mu.Unlock()
	return max(now.Sub(d.lastOK), 0)
}

// ObserveSuccess records a successful readiness probe and returns the (new
// state, whether it changed). Probation recovers to Alive at once; Dead
// counts consecutive successes and re-enters through Probation.
func (d *Detector) ObserveSuccess(now time.Time) (WorkerState, bool) {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.lastOK = now
	d.hardFails = 0
	prev := d.state
	switch d.state {
	case StateProbation:
		d.state = StateAlive
		d.consecOK = 0
	case StateDead:
		d.consecOK++
		if d.consecOK >= rejoinProbes {
			d.state = StateProbation
			d.consecOK = 0
		}
	}
	return d.state, d.state != prev
}

// ObserveNotReady records a 503 readiness answer: the worker is alive but
// draining, so it parks in Probation (no new work, in-flight continues)
// without moving towards Dead. The probe still counts as contact.
func (d *Detector) ObserveNotReady(now time.Time) (WorkerState, bool) {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.lastOK = now
	d.hardFails = 0
	d.consecOK = 0
	prev := d.state
	if d.state == StateAlive {
		d.state = StateProbation
	}
	return d.state, d.state != prev
}

// ObserveFailure records a failed probe (timeout or connection error; hard
// reports connection-refused-style failures, which count towards the
// short-circuit to Dead) and returns the (new state, whether it changed).
// State only escalates here; recovery is ObserveSuccess's job.
func (d *Detector) ObserveFailure(now time.Time, hard bool) (WorkerState, bool) {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.consecOK = 0
	if hard {
		d.hardFails++
	} else {
		d.hardFails = 0
	}
	silence := now.Sub(d.lastOK)
	prev := d.state
	next := prev
	switch {
	case d.hardFails >= probeHardFailures || silence >= deadSilence*d.interval:
		next = StateDead
	case silence >= probationSilence*d.interval:
		next = StateProbation
	}
	// Escalate only: a Dead worker cannot fall back to Probation on a
	// failure (it can only rejoin through ObserveSuccess).
	if next > d.state {
		d.state = next
	}
	return d.state, d.state != prev
}
