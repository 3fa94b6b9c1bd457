package main

import (
	"fmt"
	"path/filepath"

	"pea/internal/bc"
	"pea/internal/bench"
	"pea/internal/mj"
	"pea/internal/summary"
)

// layerMetrics lists the per-layer metrics every traced run prints. A layer
// a workload leaves idle reads 0 there. README.md records which end-to-end
// metric each should move.
var layerMetrics = []struct{ name, unit string }{
	{"mj.us_per_program", "us"},
	{"bc.verify.us_per_method", "us"},
	{"summary.us_per_program", "us"},
	{"summary.methods", "count"},
	{"build.us", "us"},
	{"build.nodes", "nodes"},
	{"build.go_bytes", "B"},
	{"opt.inline.us", "us"},
	{"opt.inline.nodes", "nodes"},
	{"opt.canonicalize.us", "us"},
	{"opt.simplify-cfg.us", "us"},
	{"opt.gvn.us", "us"},
	{"opt.dce.us", "us"},
	{"opt.phase_runs", "count"},
	{"opt.go_bytes", "B"},
	{"sched.us", "us"},
	{"pea.us", "us"},
	{"pea.rounds", "count"},
	{"pea.go_bytes", "B"},
	{"pea.virtualized", "count"},
	{"pea.materialize_sites", "count"},
	{"pea.nodes", "nodes"},
	{"closure.lower.us", "us"},
	{"closure.lower.go_bytes", "B"},
	{"code_nodes_per_op", "nodes"},
	{"replay.methods", "count"},
	{"replay.mismatches", "count"},
	{"interp.us_per_iter", "us"},
	{"rt.guest_allocs_per_iter", "allocs"},
	{"rt.materializations_per_iter", "count"},
	{"rt.monitor_ops_per_iter", "count"},
	{"rt.field_accesses_per_iter", "count"},
	{"go.mallocs_per_guest_alloc", "ratio"},
	{"vm.deopts", "count"},
	{"vm.recompilations", "count"},
	{"serve.warm.latency_p50_us", "us"},
	{"serve.disk.latency_p50_us", "us"},
	{"serve.fresh.latency_p50_us", "us"},
	{"serve.front_us", "us"},
	{"serve.exec_us", "us"},
	{"broker.busy_ms", "ms"},
	{"broker.pipeline_compiles", "count"},
	{"broker.cache_hits", "count"},
	{"broker.disk_hits", "count"},
	{"broker.dedup", "count"},
	{"broker.hit_rate", "ratio"},
	{"store.writes", "count"},
	{"store.hits", "count"},
	{"store.rejected", "count"},
	{"store.expelled", "count"},
	{"store.summary_hits", "count"},
	{"summary.cache_hits", "count"},
	{"go.gc_cycles", "count"},
	{"trace.untraced_ops_per_s", "1/s"},
	{"trace.traced_ops_per_s", "1/s"},
	{"trace.overhead_pct", "%"},
}

// perLayer returns every per-layer metric name with its unit, including
// one execution-time metric per table1-steady subject.
func perLayer() []struct{ name, unit string } {
	out := append([]struct{ name, unit string }(nil), layerMetrics...)
	var names []string
	for _, w := range bench.Suites() {
		names = append(names, w.Name)
	}
	for _, e := range examples {
		names = append(names, e.name)
	}
	for _, n := range names {
		out = append(out, struct{ name, unit string }{"exec." + n + ".us_per_iter", "us"})
	}
	return out
}

// traceDir is where traced runs write their spans.
func (c *config) traceDir() string {
	return filepath.Join(c.root, ".bench_build", "traces")
}

// frontLayers times the front of the pipeline on the given sources from
// outside: linking (mj), bytecode verification (bc) and the summary
// analysis, each under its own span.
func frontLayers(tr *tracer, srcs []string, out *outcome) error {
	var methods, summarized int64
	for _, src := range srcs {
		tr.nextOp()
		sp := tr.begin("mj")
		p, err := mj.Compile(src, "Main.main")
		tr.end(sp)
		if err != nil {
			return fmt.Errorf("linking: %w", err)
		}
		for _, m := range p.Methods {
			if len(m.Code) == 0 {
				continue
			}
			sp := tr.begin("bc.verify")
			err := bc.Verify(m)
			tr.end(sp)
			if err != nil {
				return fmt.Errorf("verifying %s: %w", m.QualifiedName(), err)
			}
			methods++
		}
		sp = tr.begin("summary")
		set := summary.Compute(p, summary.Options{})
		tr.end(sp)
		summarized += int64(set.Stats().Methods)
	}
	agg := tr.aggregate()
	n := float64(len(srcs))
	out.layer["mj.us_per_program"] = us(agg["mj"]) / n
	out.layer["bc.verify.us_per_method"] = us(agg["bc.verify"]) / float64(methods)
	out.layer["summary.us_per_program"] = us(agg["summary"]) / n
	out.layer["summary.methods"] = float64(summarized) / n
	return nil
}

// us is a layer's total self time in microseconds (0 for an idle layer).
func us(st *layerStat) float64 {
	if st == nil {
		return 0
	}
	return float64(st.self) / 1e3
}
