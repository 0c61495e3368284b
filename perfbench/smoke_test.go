package main

import (
	"context"
	"encoding/json"
	"os"
	"sort"
	"testing"
)

// benchmarkSpec is the part of BENCHMARK.json the runs must agree with.
type benchmarkSpec struct {
	Workloads []struct{ Name string }
	EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
}

func readSpec(t *testing.T) benchmarkSpec {
	t.Helper()
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var s benchmarkSpec
	if err := json.Unmarshal(b, &s); err != nil {
		t.Fatal(err)
	}
	return s
}

// TestSmoke runs every workload briefly, untraced and traced, with
// every correctness check on: no operation may fail, and each run
// must report exactly the metrics BENCHMARK.json declares.
func TestSmoke(t *testing.T) {
	spec := readSpec(t)
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, the benchmark %d", len(spec.Workloads), len(workloads))
	}
	for _, w := range spec.Workloads {
		if workloadByName(w.Name) == nil {
			t.Fatalf("BENCHMARK.json workload %q is not implemented", w.Name)
		}
	}
	for _, w := range workloads {
		for _, trace := range []bool{false, true} {
			cfg := config{seed: 2, seconds: 0.2, trace: trace, out: t.TempDir()}
			res, err := runOne(context.Background(), w.name, cfg)
			if err != nil {
				t.Fatalf("%s trace=%v: %v", w.name, trace, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
				t.Errorf("%s trace=%v: correct=%v attempted=%d failed=%d", w.name, trace, res.Correct, res.Attempted, res.Failed)
			}
			want := spec.EndToEnd
			if trace {
				want = spec.PerLayer
			}
			var missing, extra []string
			for _, m := range want {
				got, ok := res.Metrics[m.Name]
				switch {
				case !ok && m.Name == "repro_p99_ms":
					// Left out when a short run has too few samples.
				case !ok:
					missing = append(missing, m.Name)
				case got.Unit != m.Unit:
					t.Errorf("%s: %s in %s, BENCHMARK.json says %s", w.name, m.Name, got.Unit, m.Unit)
				}
			}
			declared := map[string]bool{}
			for _, m := range want {
				declared[m.Name] = true
			}
			for name := range res.Metrics {
				if !declared[name] {
					extra = append(extra, name)
				}
			}
			sort.Strings(extra)
			if len(missing)+len(extra) > 0 {
				t.Errorf("%s trace=%v: missing %v, undeclared %v", w.name, trace, missing, extra)
			}
		}
	}
}
