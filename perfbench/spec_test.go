package main

import (
	"fmt"
	"os"
	"strings"
	"testing"
)

func TestRepoSpecIsValid(t *testing.T) {
	data, err := os.ReadFile("../" + specFile)
	if err != nil {
		t.Fatal(err)
	}
	sp, err := parseSpec(data)
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range sp.Workloads {
		if _, ok := workloads[w.Name]; !ok {
			t.Errorf("workload %q has no implementation", w.Name)
		}
	}
	for name := range workloads {
		if !sp.hasWorkload(name) {
			t.Errorf("workload %q is not in %s", name, specFile)
		}
	}
}

const goodSpec = `{
  "command": ["bash", "perfbench/run.sh"],
  "paths": ["perfbench"],
  "run_seconds": 10,
  "workloads": [
    {"name": "hit", "why": "repeated keys"},
    {"name": "miss", "why": "distinct keys"}
  ],
  "end_to_end": [
    {"name": "latency_ms", "unit": "ms", "better": "lower", "bound": 0.1},
    {"name": "setup_s", "unit": "s", "better": "lower", "bound": 0.25}
  ],
  "per_layer": [
    {"name": "cache.hits", "unit": "count", "better": "higher"}
  ]
}`

func metricsJSON(prefix string, n int, withBound bool) string {
	var parts []string
	for i := 0; i < n; i++ {
		b := ""
		if withBound {
			b = `, "bound": 0.1`
		}
		parts = append(parts, fmt.Sprintf(`{"name": "%s%d", "unit": "ms", "better": "lower"%s}`, prefix, i, b))
	}
	return strings.Join(parts, ", ")
}

func TestSpecValidator(t *testing.T) {
	if _, err := parseSpec([]byte(goodSpec)); err != nil {
		t.Fatalf("good spec rejected: %v", err)
	}
	setup := `{"name": "setup_s", "unit": "s", "better": "lower", "bound": 0.25}`
	for _, c := range []struct {
		name, old, new string
	}{
		{"bad name character", `"latency_ms"`, `"latency ms"`},
		{"name starting with punctuation", `"latency_ms"`, `"_latency"`},
		{"name too long", `"latency_ms"`, `"` + strings.Repeat("a", 65) + `"`},
		{"duplicate name", `"cache.hits"`, `"latency_ms"`},
		{"workload sharing a metric name", `"hit"`, `"setup_s"`},
		{"missing unit", `"unit": "count", `, ``},
		{"empty unit", `"unit": "count"`, `"unit": ""`},
		{"bad unit character", `"unit": "count"`, `"unit": "per op"`},
		{"missing bound", `, "bound": 0.1`, ``},
		{"bound too large", `"bound": 0.1`, `"bound": 0.3`},
		{"bound on a per-layer metric", `"better": "higher"}`, `"better": "higher", "bound": 0.1}`},
		{"bad better", `"better": "higher"`, `"better": "more"`},
		{"no setup_s", setup, `{"name": "setup_ms", "unit": "ms", "better": "lower", "bound": 0.25}`},
		{"setup_s in ms", setup, `{"name": "setup_s", "unit": "ms", "better": "lower", "bound": 0.25}`},
		{"one workload", `,
    {"name": "miss", "why": "distinct keys"}`, ``},
		{"why over two lines", `"repeated keys"`, `"repeated\nkeys"`},
		{"extra key", `"run_seconds": 10,`, `"run_seconds": 10, "extra": 1,`},
		{"run_seconds too large", `"run_seconds": 10`, `"run_seconds": 61`},
		{"absolute command path", `"perfbench/run.sh"`, `"/perfbench/run.sh"`},
		{"command leaving the checkout", `"perfbench/run.sh"`, `"../run.sh"`},
		{"path leaving the checkout", `["perfbench"]`, `["../perfbench"]`},
		{"too many end-to-end metrics", setup, setup + ", " + metricsJSON("e", 15, true)},
		{"too many per-layer metrics", `{"name": "cache.hits", "unit": "count", "better": "higher"}`, metricsJSON("l", 129, false)},
	} {
		bad := strings.Replace(goodSpec, c.old, c.new, 1)
		if bad == goodSpec {
			t.Fatalf("%s: replacement did not apply", c.name)
		}
		if _, err := parseSpec([]byte(bad)); err == nil {
			t.Errorf("%s: accepted", c.name)
		}
	}
	// The limits themselves are allowed.
	atLimit := strings.Replace(goodSpec, setup, setup+", "+metricsJSON("e", 14, true), 1)
	atLimit = strings.Replace(atLimit, `{"name": "cache.hits", "unit": "count", "better": "higher"}`, metricsJSON("l", 128, false), 1)
	if _, err := parseSpec([]byte(atLimit)); err != nil {
		t.Errorf("spec at the metric limits rejected: %v", err)
	}
}
