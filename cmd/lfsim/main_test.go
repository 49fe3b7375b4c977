package main

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"testing"
	"time"

	"loopfrog/internal/serve"
)

// trivialAsm is a legal hint-free program that finishes in a handful of
// cycles.
const trivialAsm = `
main:   li   t0, 7
        addi t0, t0, 35
        halt
`

// parse runs lfsim's argument parsing on a fresh flag set.
func parse(args ...string) error {
	fs := flag.NewFlagSet("lfsim", flag.ContinueOnError)
	fs.SetOutput(io.Discard)
	_, _, err := parseArgs(fs, args)
	return err
}

// TestRulesMatchLfservd: lfsim and lfservd accept and reject the same
// simulation requests. Each row is one request as lfsim flags and as the
// equivalent job spec; lfsim must exit 2 exactly when lfservd answers 400.
func TestRulesMatchLfservd(t *testing.T) {
	prog := filepath.Join(t.TempDir(), "trivial.s")
	if err := os.WriteFile(prog, []byte(trivialAsm), 0o644); err != nil {
		t.Fatal(err)
	}
	s := serve.New(serve.Config{})
	ts := httptest.NewServer(s.Handler())
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		if err := s.Shutdown(ctx); err != nil {
			t.Errorf("shutdown: %v", err)
		}
		ts.Close()
	}()

	for _, tc := range []struct {
		name string
		args []string
		spec map[string]any
		ok   bool
	}{
		{"plain", nil, nil, true},
		{"baseline", []string{"-baseline"}, map[string]any{"baseline": true}, true},
		{"ab", []string{"-ab"}, map[string]any{"ab": true}, true},
		{"baseline+ab", []string{"-baseline", "-ab"}, map[string]any{"baseline": true, "ab": true}, false},
		{"spectre", []string{"-spectre"}, map[string]any{"spectre": true}, true},
		{"spectre+mitigate", []string{"-spectre", "-mitigate"}, map[string]any{"spectre": true, "mitigate": true}, true},
		{"spectre+ab", []string{"-spectre", "-ab"}, map[string]any{"spectre": true, "ab": true}, true},
		{"mitigate+ab", []string{"-mitigate", "-ab"}, map[string]any{"mitigate": true, "ab": true}, true},
		{"faults", []string{"-faults", "all"}, map[string]any{"faults": "all"}, true},
		{"faults+ab", []string{"-faults", "kill", "-ab"}, map[string]any{"faults": "kill", "ab": true}, true},
		{"bad faults", []string{"-faults", "frobnicate=2"}, map[string]any{"faults": "frobnicate=2"}, false},
		{"sampled", []string{"-sampled"}, map[string]any{"sampled": true}, true},
		{"sampled+ab", []string{"-sampled", "-ab"}, map[string]any{"sampled": true, "ab": true}, true},
		{"sampled+baseline", []string{"-sampled", "-baseline"}, map[string]any{"sampled": true, "baseline": true}, true},
		{"sampled+spectre", []string{"-sampled", "-spectre"}, map[string]any{"sampled": true, "spectre": true}, false},
		{"sampled+mitigate", []string{"-sampled", "-mitigate"}, map[string]any{"sampled": true, "mitigate": true}, false},
		{"sampled+faults", []string{"-sampled", "-faults", "all"}, map[string]any{"sampled": true, "faults": "all"}, false},
		{"sample shape",
			[]string{"-sampled", "-interval", "20000", "-window", "5000", "-warmup", "1000"},
			map[string]any{"sampled": true, "sample_interval": 20000, "sample_window": 5000, "sample_warmup": 1000}, true},
		{"warmup over interval",
			[]string{"-sampled", "-interval", "10", "-warmup", "10"},
			map[string]any{"sampled": true, "sample_interval": 10, "sample_warmup": 10}, false},
		{"shape without sampled", []string{"-window", "1000"}, map[string]any{"sample_window": 1000}, false},
		{"threadlets", []string{"-threadlets", "2", "-ab"}, map[string]any{"threadlets": 2, "ab": true}, true},
		{"negative threadlets", []string{"-threadlets", "-3"}, map[string]any{"threadlets": -3}, false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			lfsimOK := parse(append(tc.args, prog)...) == nil
			spec := map[string]any{"asm": trivialAsm, "async": true}
			for k, v := range tc.spec {
				spec[k] = v
			}
			body, err := json.Marshal(spec)
			if err != nil {
				t.Fatal(err)
			}
			resp, err := http.Post(ts.URL+"/v1/jobs", "application/json", bytes.NewReader(body))
			if err != nil {
				t.Fatal(err)
			}
			payload, _ := io.ReadAll(resp.Body)
			resp.Body.Close()
			if resp.StatusCode != http.StatusAccepted && resp.StatusCode != http.StatusBadRequest {
				t.Fatalf("lfservd answered %d: %s", resp.StatusCode, payload)
			}
			servedOK := resp.StatusCode == http.StatusAccepted
			if lfsimOK != servedOK || lfsimOK != tc.ok {
				t.Errorf("lfsim accepts %v, lfservd accepts %v (%s), want both %v", lfsimOK, servedOK, payload, tc.ok)
			}
		})
	}
}

// TestCLIOnlyRules: -check and -trace need one detailed machine, which an
// A/B pair does not have and a sampled run does not have for -check.
func TestCLIOnlyRules(t *testing.T) {
	for _, args := range [][]string{
		{"-ab", "-check"},
		{"-ab", "-trace", "t.json"},
		{"-sampled", "-ab", "-trace", "t.json"},
		{"-sampled", "-check"},
	} {
		if parse(append(args, "-bench", "mcf")...) == nil {
			t.Errorf("lfsim %v accepted, want a usage error", args)
		}
	}
	for _, args := range [][]string{
		{"-check"},
		{"-trace", "t.json"},
		{"-sampled", "-trace", "t.json"},
	} {
		if err := parse(append(args, "-bench", "mcf")...); err != nil {
			t.Errorf("lfsim %v: %v", args, err)
		}
	}
}
