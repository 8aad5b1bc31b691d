package main

import (
	"encoding/json"
	"os"
	"testing"
)

// BENCHMARK.json at the repository root declares the metrics this program
// prints; the two lists must not drift apart.
func TestBenchmarkJSONMatchesMetrics(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var decl struct {
		EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &decl); err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		kind string
		decl []struct{ Name, Unit string }
		code []metricSpec
	}{
		{"end_to_end", decl.EndToEnd, endToEnd},
		{"per_layer", decl.PerLayer, layerMetrics()},
	} {
		if len(c.decl) != len(c.code) {
			t.Errorf("%s declares %d metrics, the program prints %d", c.kind, len(c.decl), len(c.code))
			continue
		}
		for i, m := range c.code {
			if c.decl[i].Name != m.name || c.decl[i].Unit != m.unit {
				t.Errorf("%s[%d] declared %s (%s), printed %s (%s)", c.kind, i, c.decl[i].Name, c.decl[i].Unit, m.name, m.unit)
			}
		}
	}
}
