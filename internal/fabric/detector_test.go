package fabric

import (
	"testing"
	"time"
)

// tick advances a fake clock by d and returns the new now.
func tick(now *time.Time, d time.Duration) time.Time {
	*now = now.Add(d)
	return *now
}

func TestDetectorStaysAliveUnderRegularProbes(t *testing.T) {
	now := time.Unix(0, 0)
	d := NewDetector(DetectorConfig{}, now)
	for i := 0; i < 50; i++ {
		if st, changed := d.ObserveSuccess(tick(&now, 100*time.Millisecond)); st != StateAlive || changed {
			t.Fatalf("probe %d: state %v changed=%v, want steady alive", i, st, changed)
		}
	}
	if phi := d.Phi(now); phi > 1.5 {
		t.Errorf("healthy phi = %.2f, want ~<=1", phi)
	}
}

func TestDetectorEscalatesThroughStates(t *testing.T) {
	now := time.Unix(0, 0)
	d := NewDetector(DetectorConfig{}, now)
	for i := 0; i < 10; i++ {
		d.ObserveSuccess(tick(&now, 100*time.Millisecond))
	}
	// Silence: soft failures accrue phi (mean interval 100ms, thresholds
	// 3/5/8 → suspect at 300ms, probation at 500ms, dead at 800ms).
	st, changed := d.ObserveFailure(tick(&now, 350*time.Millisecond), false)
	if st != StateSuspect || !changed {
		t.Fatalf("after 350ms silence: %v changed=%v, want suspect", st, changed)
	}
	st, changed = d.ObserveFailure(tick(&now, 200*time.Millisecond), false)
	if st != StateProbation || !changed {
		t.Fatalf("after 550ms silence: %v changed=%v, want probation", st, changed)
	}
	st, changed = d.ObserveFailure(tick(&now, 300*time.Millisecond), false)
	if st != StateDead || !changed {
		t.Fatalf("after 850ms silence: %v changed=%v, want dead", st, changed)
	}
	// Dead does not de-escalate on further failures.
	if st, _ = d.ObserveFailure(tick(&now, time.Millisecond), false); st != StateDead {
		t.Fatalf("dead de-escalated to %v", st)
	}
}

func TestDetectorHardFailuresShortCircuit(t *testing.T) {
	now := time.Unix(0, 0)
	d := NewDetector(DetectorConfig{MinInterval: time.Hour}, now)
	// MinInterval of an hour keeps phi ~0, so only the hard-failure counter
	// can kill: connection-refused is conclusive without accrual.
	var st WorkerState
	for i := 0; i < probeHardFailures; i++ {
		st, _ = d.ObserveFailure(tick(&now, time.Millisecond), true)
	}
	if st != StateDead {
		t.Fatalf("state after %d hard failures = %v, want dead", probeHardFailures, st)
	}
}

func TestDetectorRecovery(t *testing.T) {
	now := time.Unix(0, 0)
	d := NewDetector(DetectorConfig{}, now)
	for i := 0; i < 8; i++ {
		d.ObserveSuccess(tick(&now, 100*time.Millisecond))
	}
	d.ObserveFailure(tick(&now, 350*time.Millisecond), false)
	if st := d.State(); st != StateSuspect {
		t.Fatalf("setup: %v, want suspect", st)
	}
	// A suspect that answers recovers immediately.
	if st, changed := d.ObserveSuccess(tick(&now, 50*time.Millisecond)); st != StateAlive || !changed {
		t.Fatalf("suspect + success = %v changed=%v, want alive", st, changed)
	}
	// Kill it, then count it back in: rejoinProbes consecutive successes
	// reach only Probation; one more success restores Alive.
	for i := 0; i < 4; i++ {
		d.ObserveFailure(tick(&now, time.Second), true)
	}
	if st := d.State(); st != StateDead {
		t.Fatalf("setup: %v, want dead", st)
	}
	var st WorkerState
	for i := 0; i < 3; i++ {
		st, _ = d.ObserveSuccess(tick(&now, 100*time.Millisecond))
	}
	if st != StateProbation {
		t.Fatalf("dead + 3 successes = %v, want probation", st)
	}
	if st, _ = d.ObserveSuccess(tick(&now, 100*time.Millisecond)); st != StateAlive {
		t.Fatalf("probation + success = %v, want alive", st)
	}
}

func TestDetectorNotReadyParksInProbation(t *testing.T) {
	now := time.Unix(0, 0)
	d := NewDetector(DetectorConfig{}, now)
	for i := 0; i < 5; i++ {
		d.ObserveSuccess(tick(&now, 100*time.Millisecond))
	}
	st, changed := d.ObserveNotReady(tick(&now, 100*time.Millisecond))
	if st != StateProbation || !changed {
		t.Fatalf("alive + 503 = %v changed=%v, want probation", st, changed)
	}
	// Draining is not death suspicion: phi stays low and further 503s keep
	// it parked, never dead.
	for i := 0; i < 20; i++ {
		st, _ = d.ObserveNotReady(tick(&now, 100*time.Millisecond))
	}
	if st != StateProbation {
		t.Fatalf("long drain = %v, want probation", st)
	}
	if st, _ = d.ObserveSuccess(tick(&now, 100*time.Millisecond)); st != StateAlive {
		t.Fatalf("drain over = %v, want alive", st)
	}
}
