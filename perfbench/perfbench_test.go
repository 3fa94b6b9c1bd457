package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
	"time"
)

// TestSmoke runs the tiny size of every workload, untraced and traced, with
// every output check on.
func TestSmoke(t *testing.T) {
	for name := range workloads {
		for _, trace := range []bool{false, true} {
			c := &config{workload: name, seed: 3, seconds: time.Second, trace: trace, smoke: true}
			res, err := run(c)
			if err != nil {
				t.Fatalf("%s trace=%v: %v", name, trace, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Errorf("%s trace=%v: correct=%v attempted=%d failed=%d",
					name, trace, res.Correct, res.Attempted, res.Failed)
			}
			if !trace {
				for _, m := range endToEnd {
					if v := res.Metrics[m.name].Value; v <= 0 {
						t.Errorf("%s: %s = %v, want > 0", name, m.name, v)
					}
				}
			}
			if trace && name == "compile-cold" {
				if res.Metrics["replay.methods"].Value == 0 || res.Metrics["replay.mismatches"].Value != 0 {
					t.Errorf("compile-cold replay: %v methods, %v mismatches",
						res.Metrics["replay.methods"].Value, res.Metrics["replay.mismatches"].Value)
				}
			}
		}
	}
}

// TestBenchmarkJSON keeps BENCHMARK.json's metric lists in step with the
// metrics the benchmark prints.
func TestBenchmarkJSON(t *testing.T) {
	root, err := findRoot()
	if err != nil {
		t.Fatal(err)
	}
	b, err := os.ReadFile(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	type entry struct{ Name, Unit string }
	var spec struct {
		EndToEnd []entry `json:"end_to_end"`
		PerLayer []entry `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	same := func(what string, got []entry, want []struct{ name, unit string }) {
		listed := map[string]string{}
		for _, e := range got {
			listed[e.Name] = e.Unit
		}
		if len(listed) != len(want) {
			t.Errorf("%s: BENCHMARK.json lists %d metrics, the benchmark prints %d", what, len(listed), len(want))
		}
		for _, m := range want {
			if u, ok := listed[m.name]; !ok || u != m.unit {
				t.Errorf("%s: the benchmark prints %s (%s), BENCHMARK.json has %q", what, m.name, m.unit, u)
			}
		}
	}
	same("end_to_end", spec.EndToEnd, endToEnd)
	same("per_layer", spec.PerLayer, perLayer())
}
