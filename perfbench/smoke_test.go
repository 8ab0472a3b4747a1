package main

import (
	"os/exec"
	"path/filepath"
	"testing"
	"time"
)

// The smoke tests run every workload for a one-second window, untraced and
// traced, and check that it passes its output checks and reports its
// metrics. They take about half a minute; -short skips them.

// busyMetrics are, per workload, the metrics that must read non-zero.
var busyMetrics = map[string][]string{
	"pipeline": {"pipeline_s", "core.train_s", "core.test_s", "core.designs", "core.build_design_ms",
		"louvain.calls", "louvain.cluster_ms", "fidelity.stage1_ms", "fidelity.refined_points",
		"fidelity.build_ms", "fidelity.rescore_us", "eval.cache_entries", "go.allocs_per_op"},
	"explore": {"fine_sweep_s", "mixfine_sweep_s", "search_s", "ppa.summary_ns", "ppa.mix_summary_ns",
		"ppa.full_eval_us", "dse.sweep_ns_per_eval", "dse.max_retained", "search.anneal_ms",
		"search.genetic_ms", "search.evals_ratio", "eval.plan_build_ms"},
	"serve": {"latency_p99_ms", "serve.submit_ms_p50", "serve.job_ms_p50", "serve.exec_ms_p50",
		"eval.cache_entries", "eval.cache_hit_ratio", "serve.saturated_rps", "go.allocs_per_op"},
}

func smoke(t *testing.T, cfg config) {
	t.Helper()
	for _, traced := range []bool{false, true} {
		cfg.trace = traced
		var tr *tracer
		if traced {
			tr = newTracer()
		}
		out, err := workloads[cfg.workload](cfg, tr)
		if err != nil {
			t.Fatalf("%s (traced %v): %v", cfg.workload, traced, err)
		}
		if len(out.problems) > 0 || out.failed > 0 || out.attempted == 0 {
			t.Fatalf("%s (traced %v): %d of %d failed, problems %v", cfg.workload, traced, out.failed, out.attempted, out.problems)
		}
		for _, d := range endToEnd {
			if out.values[d.name] <= 0 {
				t.Errorf("%s: end-to-end %s = %v, want > 0", cfg.workload, d.name, out.values[d.name])
			}
		}
		if traced {
			for _, name := range busyMetrics[cfg.workload] {
				if out.values[name] <= 0 {
					t.Errorf("%s: per-layer %s = %v, want > 0", cfg.workload, name, out.values[name])
				}
			}
		}
	}
}

func TestSmokePipeline(t *testing.T) {
	if testing.Short() {
		t.Skip("smoke run")
	}
	smoke(t, config{workload: "pipeline", seed: 0, window: time.Second})
}

func TestSmokeExplore(t *testing.T) {
	if testing.Short() {
		t.Skip("smoke run")
	}
	smoke(t, config{workload: "explore", seed: 2, window: time.Second})
}

func TestSmokeServe(t *testing.T) {
	if testing.Short() {
		t.Skip("smoke run")
	}
	bin := filepath.Join(t.TempDir(), "claired")
	if out, err := exec.Command("go", "build", "-o", bin, "repro/cmd/claired").CombinedOutput(); err != nil {
		t.Fatalf("building claired: %v\n%s", err, out)
	}
	smoke(t, config{workload: "serve", seed: 3, window: 2 * time.Second, claired: bin})
}
