package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
)

// TestMetricTablesMatchBenchmarkJSON keeps the metric tables in step with
// BENCHMARK.json at the repository root.
func TestMetricTablesMatchBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var b struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit, Better string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	check := func(table string, got []metric, want []struct{ Name, Unit, Better string }) {
		if len(got) != len(want) {
			t.Fatalf("%s: %d metrics here, %d in BENCHMARK.json", table, len(got), len(want))
		}
		for i, m := range got {
			w := want[i]
			if m.name != w.Name || m.unit != w.Unit || m.better != w.Better {
				t.Errorf("%s[%d]: %+v here, %+v in BENCHMARK.json", table, i, m, w)
			}
		}
	}
	check("end_to_end", endToEnd, b.EndToEnd)
	check("per_layer", perLayer, b.PerLayer)
	if len(b.Workloads) != len(workloads) {
		t.Fatalf("%d workloads here, %d in BENCHMARK.json", len(workloads), len(b.Workloads))
	}
	for i, w := range workloads {
		if b.Workloads[i].Name != w.name {
			t.Errorf("workload %d: %q here, %q in BENCHMARK.json", i, w.name, b.Workloads[i].Name)
		}
	}
}
