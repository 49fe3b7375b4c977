package serve

import (
	"time"

	"loopfrog/internal/tune"
)

// FabricEvaluator is the tuner's fabric evaluator on s, for the external
// tests.
func FabricEvaluator(s *Server, timeout time.Duration) tune.Evaluator {
	return &fabricEvaluator{s: s, timeout: timeout}
}
