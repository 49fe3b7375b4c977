// Package fabric is lfservd's distributed sweep fabric: a coordinator/worker
// mode that shards simulation jobs across nodes while staying correct and
// available when those nodes die, hang, or partition mid-job.
//
// Topology: one coordinator runs the public API (admission, lint preflight,
// SSE, drain — all unchanged from single-node lfservd, provided by
// internal/serve) and owns placement; N workers are plain lfservd processes
// that registered with the coordinator (`lfservd -worker -join=URL`) and
// execute forwarded jobs on their local harnesses, each with its own
// LRU-bounded run-cache.
//
// Placement is a consistent-hash ring keyed on the job's run-cache
// fingerprint (sim.Fingerprint: program content hash x canonicalised config),
// so identical jobs land on the worker that already has the result cached.
// Every joined worker stays on the ring and placement skips the ones that
// are not Alive, so a worker's death moves only the keys homed on it. Each
// job's own goroutine dispatches it: it takes the first Alive worker in ring order from the
// key's home and waits while that worker's slots are all busy, so a busy home
// keeps its keys rather than handing them to an idle worker that would have
// to simulate them again.
//
// The robustness layer is the point:
//
//   - Per-worker readiness probes feed a failure detector that counts
//     silence in probe intervals (Alive -> Probation -> Dead; see
//     WorkerState) so slow workers are routed around long before they are
//     declared dead.
//   - Transport-level dispatch failures retry with exponential backoff and
//     jitter on another worker, up to a fixed retry budget.
//   - Worker death requeues its in-flight jobs exactly once; a second death
//     under the same job surfaces serve.ErrWorkerLost instead of retrying
//     forever.
//   - Workers that answer a job with a panic are quarantined per
//     (worker, fingerprint) pair, so a model bug tied to one job cannot
//     repeatedly crash the same node while other traffic still routes there.
//   - When the last worker is lost the coordinator reports
//     serve.ErrRemoteUnavailable and internal/serve degrades the job to
//     local single-node execution: the fabric never fails traffic it can
//     still serve by itself.
//
// A seeded chaos mode (Chaos, `lfservd -chaos-fabric`) kills, partitions,
// and delays workers deterministically; the differential test in
// chaos_test.go checks that sweep results under chaos are identical to a
// clean single-node run — the checker-teeth test at fabric scale.
package fabric

import (
	"fmt"
	"strings"
)

// Version identifies the fabric protocol generation (join payloads and the
// forwarded job API, which is the serve v1 job API).
const Version = "1.0"

// JoinInfo is the worker registration payload (POST /fabric/join).
type JoinInfo struct {
	// ID names the worker; must be unique in the cluster.
	ID string `json:"id"`
	// URL is the base URL the coordinator reaches the worker at.
	URL string `json:"url"`
	// Runners is the worker's concurrent job capacity; the coordinator sizes
	// the worker's dispatch slots from it. <= 0 means 4.
	Runners int `json:"runners,omitempty"`
}

func (j JoinInfo) validate() error {
	if strings.TrimSpace(j.ID) == "" {
		return fmt.Errorf("fabric: join without worker id")
	}
	if !strings.HasPrefix(j.URL, "http://") && !strings.HasPrefix(j.URL, "https://") {
		return fmt.Errorf("fabric: join url %q is not absolute http(s)", j.URL)
	}
	return nil
}

// pairKey is the (worker, fingerprint) quarantine key.
func pairKey(workerID, fingerprint string) string { return workerID + "|" + fingerprint }
