package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"
)

// TestFinishedJobHoldsNoMachine checks that a finished job drops its
// simulated machine: the registry keeps up to RetainJobs finished jobs, and a
// machine holds its whole heap. The final counters stay in the job's result.
func TestFinishedJobHoldsNoMachine(t *testing.T) {
	s := New(Config{})
	ts := httptest.NewServer(s.Handler())
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		if err := s.Shutdown(ctx); err != nil {
			t.Errorf("shutdown: %v", err)
		}
		ts.Close()
	}()
	body, _ := json.Marshal(map[string]any{"bench": "deepsjeng", "ab": true})
	resp, err := http.Post(ts.URL+"/v1/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	payload, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d, body %s", resp.StatusCode, payload)
	}
	var v jobView
	if err := json.Unmarshal(payload, &v); err != nil {
		t.Fatal(err)
	}
	j := s.lookupJob(v.ID)
	if j == nil {
		t.Fatalf("job %s not retained", v.ID)
	}
	j.mu.Lock()
	m := j.machine
	j.mu.Unlock()
	if m != nil {
		t.Error("finished job still holds its *cpu.Machine")
	}
	if p := j.sampleProgress(); p.Status != StatusDone || p.Cycles != 0 {
		t.Errorf("progress of a finished job = %+v, want status done and no live counters", p)
	}
	fin := j.view()
	if fin.Result == nil || fin.Result.Cycles <= 0 || fin.Result.ArchInsts == 0 || fin.Result.LoopFrogCycles != fin.Result.Cycles {
		t.Errorf("finished job lost its final counters: %+v", fin.Result)
	}
}
