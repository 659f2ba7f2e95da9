package main

import (
	"sort"
	"strings"
	"testing"
)

// serialConfig is a small, single-client serial pass of one workload:
// the same seed gives the same calls in the same order.
func serialConfig(t *testing.T, workload string, trace bool) *config {
	cfg := defaultConfig()
	cfg.workload, cfg.seed, cfg.trace, cfg.dir = workload, 7, trace, t.TempDir()
	cfg.setups, cfg.setupSeconds, cfg.sessions, cfg.window = 1, 0, 4, 2
	// Enough calls for two async flushes (record), two walks and both
	// use cases on several sessions (usecase), and deletes with a
	// compaction (churn).
	cfg.serial = map[string][2]int{"record": {300, 300}, "usecase": {2 * (lineagesPerWalk + 1), 8}, "churn": {600, 600}}[workload]
	return &cfg
}

func mustRun(t *testing.T, cfg *config) *outcome {
	t.Helper()
	out, err := run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !out.Correct {
		t.Fatalf("%d of %d calls failed or answered wrongly: %v", out.Failed, out.Attempted, out.errs)
	}
	return out
}

// TestTracingChangesOnlyTiming runs each workload's serial pass without
// and with the tracing wrappers: the answers and the program's own
// counters (engine, result cache, block cache, bloom filters,
// compactions, request counts) must be identical. A wrapper that hid an
// optional interface would switch a cache, the bloom counters or
// compaction off, and show here.
func TestTracingChangesOnlyTiming(t *testing.T) {
	for _, w := range []string{"record", "usecase", "churn"} {
		t.Run(w, func(t *testing.T) {
			plain := mustRun(t, serialConfig(t, w, false))
			traced := mustRun(t, serialConfig(t, w, true))
			if plain.answers != traced.answers {
				t.Errorf("answers differ: untraced %s, traced %s", plain.answers, traced.answers)
			}
			for _, k := range keys(plain.counters, traced.counters) {
				if plain.counters[k] != traced.counters[k] {
					t.Errorf("counter %s: untraced %v, traced %v", k, plain.counters[k], traced.counters[k])
				}
			}
			t.Logf("serial pass: untraced %.3f s, traced %.3f s (tracing overhead %+.1f%%)",
				plain.elapsed, traced.elapsed, 100*(traced.elapsed/plain.elapsed-1))
		})
	}
}

// TestShortWindowIsIncorrect runs usecase for a window too short for a
// walk or a ValidateSession to complete. The end-to-end metrics behind
// them have no sample, and the run must be marked incorrect instead of
// reporting them as zero.
func TestShortWindowIsIncorrect(t *testing.T) {
	cfg := serialConfig(t, "usecase", false)
	cfg.serial, cfg.seconds = [2]int{}, 0.001
	out, err := run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if out.Correct || out.Failed == 0 {
		t.Fatalf("run with no walk or semval marked correct: %+v", out.result)
	}
	if !strings.Contains(strings.Join(out.errs, "\n"), "heavy_p50_ms") {
		t.Errorf("errors do not name the missing metric: %v", out.errs)
	}
	for _, name := range []string{"rec_per_s", "heavy_p50_ms"} {
		if m := out.Metrics[name]; m.Value != 0 || m.Unit == "" {
			t.Errorf("%s = %+v, want 0 with its unit", name, m)
		}
	}
}

// TestExactLayerMetricsRepeat runs each workload's traced serial pass
// twice: every per-layer metric listed as exact must repeat exactly,
// so a later change may cite it as a count.
func TestExactLayerMetricsRepeat(t *testing.T) {
	for _, w := range []string{"record", "usecase", "churn"} {
		t.Run(w, func(t *testing.T) {
			a := mustRun(t, serialConfig(t, w, true))
			b := mustRun(t, serialConfig(t, w, true))
			for _, name := range exactLayerMetrics {
				ma, ok := a.Metrics[name]
				if !ok {
					t.Fatalf("traced run lacks metric %s", name)
				}
				if mb := b.Metrics[name]; ma != mb {
					t.Errorf("%s: %v then %v", name, ma.Value, mb.Value)
				}
			}
		})
	}
}

func keys(ms ...map[string]float64) []string {
	seen := map[string]bool{}
	var out []string
	for _, m := range ms {
		for k := range m {
			if !seen[k] {
				seen[k] = true
				out = append(out, k)
			}
		}
	}
	sort.Strings(out)
	return out
}

// exactLayerMetrics are the per-layer metrics that count work rather
// than time it: on a serial pass of one seed they repeat exactly.
var exactLayerMetrics = []string{
	"soap.req_bytes_per_record.record", "soap.resp_bytes_per_record.record",
	"soap.req_bytes_per_record.query-planned", "soap.resp_bytes_per_record.query-planned",
	"soap.req_bytes_per_record.query-page", "soap.resp_bytes_per_record.query-page",
	"shard.calls_per_query", "shard.resultcache_hit_ratio",
	"query.postings_per_result", "query.candidates_per_result",
	"query.cost_probes_per_query", "query.scan_plans", "query.engine_cache_hit_ratio",
	"index.postings_put_per_record",
	"store.blockcache_hit_ratio", "store.bloom_skip_ratio", "store.compactions",
	"backend.bytes_put_per_user_byte", "backend.keys_per_getbatch",
	"registry.calls_per_interaction", "compare.store_calls", "semval.store_calls",
}
