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

const testInterval = 100 * time.Millisecond

func TestDetectorStaysAliveUnderRegularProbes(t *testing.T) {
	now := time.Unix(0, 0)
	d := NewDetector(testInterval, now)
	for i := 0; i < 50; i++ {
		if st, changed := d.ObserveSuccess(tick(&now, testInterval)); st != StateAlive || changed {
			t.Fatalf("probe %d: state %v changed=%v, want steady alive", i, st, changed)
		}
	}
	if s := d.Silence(tick(&now, testInterval/2)); s != testInterval/2 {
		t.Errorf("silence = %v, want %v since the last answer", s, testInterval/2)
	}
}

func TestDetectorEscalatesThroughStates(t *testing.T) {
	now := time.Unix(0, 0)
	d := NewDetector(testInterval, now)
	// Silence: soft failures escalate at 3 intervals (probation) and 8
	// (dead).
	st, changed := d.ObserveFailure(tick(&now, 350*time.Millisecond), false)
	if st != StateProbation || !changed {
		t.Fatalf("after 350ms silence: %v changed=%v, want probation", st, changed)
	}
	st, changed = d.ObserveFailure(tick(&now, 500*time.Millisecond), false)
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
	// An hour-long interval keeps the silence far below any threshold, so
	// only the hard-failure streak can kill: connection-refused is conclusive
	// without waiting.
	d := NewDetector(time.Hour, now)
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
	d := NewDetector(testInterval, now)
	d.ObserveFailure(tick(&now, 350*time.Millisecond), false)
	if st := d.State(); st != StateProbation {
		t.Fatalf("setup: %v, want probation", st)
	}
	// A silent worker that answers again recovers immediately.
	if st, changed := d.ObserveSuccess(tick(&now, 50*time.Millisecond)); st != StateAlive || !changed {
		t.Fatalf("probation + success = %v changed=%v, want alive", st, changed)
	}
	// Kill it, then count it back in: rejoinProbes consecutive successes
	// reach only Probation; one more success restores Alive.
	for i := 0; i < probeHardFailures; i++ {
		d.ObserveFailure(tick(&now, time.Millisecond), true)
	}
	if st := d.State(); st != StateDead {
		t.Fatalf("setup: %v, want dead", st)
	}
	var st WorkerState
	for i := 0; i < rejoinProbes; i++ {
		st, _ = d.ObserveSuccess(tick(&now, testInterval))
	}
	if st != StateProbation {
		t.Fatalf("dead + %d successes = %v, want probation", rejoinProbes, st)
	}
	if st, _ = d.ObserveSuccess(tick(&now, testInterval)); st != StateAlive {
		t.Fatalf("probation + success = %v, want alive", st)
	}
}

func TestDetectorNotReadyParksInProbation(t *testing.T) {
	now := time.Unix(0, 0)
	d := NewDetector(testInterval, now)
	st, changed := d.ObserveNotReady(tick(&now, testInterval))
	if st != StateProbation || !changed {
		t.Fatalf("alive + 503 = %v changed=%v, want probation", st, changed)
	}
	// Draining is contact, not silence: further 503s keep it parked, never
	// dead.
	for i := 0; i < 20; i++ {
		st, _ = d.ObserveNotReady(tick(&now, testInterval))
	}
	if st != StateProbation {
		t.Fatalf("long drain = %v, want probation", st)
	}
	if st, _ = d.ObserveSuccess(tick(&now, testInterval)); st != StateAlive {
		t.Fatalf("drain over = %v, want alive", st)
	}
}

// TestDetectorTransitions walks scripted probe outcomes through the state
// machine. Each step happens at a time since the detector started, in probe
// intervals, and names the state the detector must then be in.
func TestDetectorTransitions(t *testing.T) {
	type outcome int
	const (
		ok outcome = iota
		notReady
		soft
		hard
	)
	type step struct {
		at   float64 // probe intervals since start
		obs  outcome
		want WorkerState
	}
	cases := []struct {
		name  string
		steps []step
	}{
		{"probation at 3 silent intervals", []step{
			{2.99, soft, StateAlive},
			{3, soft, StateProbation},
		}},
		{"dead at 8 silent intervals", []step{
			{3, soft, StateProbation},
			{7.99, soft, StateProbation},
			{8, soft, StateDead},
		}},
		{"contact restarts the silence clock", []step{
			{2.5, ok, StateAlive},
			{5.49, soft, StateAlive},
			{5.5, soft, StateProbation},
		}},
		{"4 consecutive hard failures kill", []step{
			{0.1, hard, StateAlive},
			{0.2, hard, StateAlive},
			{0.3, hard, StateAlive},
			{0.4, hard, StateDead},
		}},
		{"a soft failure ends the hard streak", []step{
			{0.1, hard, StateAlive},
			{0.2, hard, StateAlive},
			{0.3, hard, StateAlive},
			{0.4, soft, StateAlive},
			{0.5, hard, StateAlive},
			{0.6, hard, StateAlive},
			{0.7, hard, StateAlive},
			{0.8, hard, StateDead},
		}},
		{"a success ends the hard streak", []step{
			{0.1, hard, StateAlive},
			{0.2, hard, StateAlive},
			{0.3, hard, StateAlive},
			{0.4, ok, StateAlive},
			{0.5, hard, StateAlive},
			{0.6, hard, StateAlive},
			{0.7, hard, StateAlive},
		}},
		{"a 503 ends the hard streak and parks", []step{
			{0.1, hard, StateAlive},
			{0.2, hard, StateAlive},
			{0.3, hard, StateAlive},
			{0.4, notReady, StateProbation},
			{0.5, hard, StateProbation},
			{0.6, hard, StateProbation},
			{0.7, hard, StateProbation},
			{0.8, hard, StateDead},
		}},
		{"503s park in probation however long", []step{
			{1, notReady, StateProbation},
			{10, notReady, StateProbation},
			{20, notReady, StateProbation},
			{21, ok, StateAlive},
		}},
		{"dead rejoins through probation after 3 successes", []step{
			{8, soft, StateDead},
			{9, ok, StateDead},
			{10, ok, StateDead},
			{11, ok, StateProbation},
			{12, ok, StateAlive},
		}},
		{"a failure restarts the rejoin count", []step{
			{8, soft, StateDead},
			{9, ok, StateDead},
			{10, ok, StateDead},
			{10.5, soft, StateDead},
			{11, ok, StateDead},
			{12, ok, StateDead},
			{13, ok, StateProbation},
		}},
		{"a 503 does not revive the dead", []step{
			{8, soft, StateDead},
			{9, notReady, StateDead},
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			start := time.Unix(0, 0)
			d := NewDetector(testInterval, start)
			for i, s := range tc.steps {
				now := start.Add(time.Duration(s.at * float64(testInterval)))
				var st WorkerState
				switch s.obs {
				case ok:
					st, _ = d.ObserveSuccess(now)
				case notReady:
					st, _ = d.ObserveNotReady(now)
				case soft, hard:
					st, _ = d.ObserveFailure(now, s.obs == hard)
				}
				if st != s.want {
					t.Fatalf("step %d (outcome %d at %.2f intervals): state %v, want %v", i, s.obs, s.at, st, s.want)
				}
			}
		})
	}
}
