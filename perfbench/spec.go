package main

import (
	"encoding/json"
	"fmt"
	"regexp"
	"strings"
)

// spec is BENCHMARK.json: the workloads and metrics this benchmark
// promises to report. The benchmark reads it at start-up so the metrics
// it prints always match the published names and units.
type spec struct {
	Command    []string   `json:"command"`
	Paths      []string   `json:"paths"`
	RunSeconds int        `json:"run_seconds"`
	Workloads  []workSpec `json:"workloads"`
	EndToEnd   []metric   `json:"end_to_end"`
	PerLayer   []metric   `json:"per_layer"`
}

type workSpec struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

type metric struct {
	Name   string   `json:"name"`
	Unit   string   `json:"unit"`
	Better string   `json:"better"`
	Bound  *float64 `json:"bound,omitempty"`
}

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	pathRE = regexp.MustCompile(`^[A-Za-z0-9_./-]{1,200}$`)
)

// Limits of the BENCHMARK.json contract.
const (
	maxSpecBytes    = 64 << 10
	maxEndToEnd     = 16
	maxPerLayer     = 128
	maxBound        = 0.25
	maxCommandArgs  = 32
	maxArgLen       = 200
	maxWhyLen       = 200
	minWorkloads    = 2
	maxWorkloads    = 8
	maxPaths        = 16
	maxRunSeconds   = 60
	setupMetricName = "setup_s"
)

// parseSpec decodes and validates BENCHMARK.json.
func parseSpec(data []byte) (*spec, error) {
	if len(data) > maxSpecBytes {
		return nil, fmt.Errorf("spec: %d bytes, limit %d", len(data), maxSpecBytes)
	}
	if err := exactKeys(data, "spec", "command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"); err != nil {
		return nil, err
	}
	var raw struct {
		Workloads []json.RawMessage `json:"workloads"`
		EndToEnd  []json.RawMessage `json:"end_to_end"`
		PerLayer  []json.RawMessage `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &raw); err != nil {
		return nil, fmt.Errorf("spec: %w", err)
	}
	for i, w := range raw.Workloads {
		if err := exactKeys(w, fmt.Sprintf("workloads[%d]", i), "name", "why"); err != nil {
			return nil, err
		}
	}
	for i, m := range raw.EndToEnd {
		if err := exactKeys(m, fmt.Sprintf("end_to_end[%d]", i), "name", "unit", "better", "bound"); err != nil {
			return nil, err
		}
	}
	for i, m := range raw.PerLayer {
		if err := exactKeys(m, fmt.Sprintf("per_layer[%d]", i), "name", "unit", "better"); err != nil {
			return nil, err
		}
	}
	var s spec
	if err := json.Unmarshal(data, &s); err != nil {
		return nil, fmt.Errorf("spec: %w", err)
	}
	return &s, s.validate()
}

// exactKeys checks that a JSON object has exactly the given keys.
func exactKeys(data []byte, what string, keys ...string) error {
	var obj map[string]json.RawMessage
	if err := json.Unmarshal(data, &obj); err != nil {
		return fmt.Errorf("spec: %s: %w", what, err)
	}
	for _, k := range keys {
		if _, ok := obj[k]; !ok {
			return fmt.Errorf("spec: %s: missing key %q", what, k)
		}
	}
	if len(obj) != len(keys) {
		return fmt.Errorf("spec: %s: has %d keys, want exactly %v", what, len(obj), keys)
	}
	return nil
}

func (s *spec) validate() error {
	if len(s.Command) == 0 || len(s.Command) > maxCommandArgs {
		return fmt.Errorf("spec: command has %d strings, want 1..%d", len(s.Command), maxCommandArgs)
	}
	for _, a := range s.Command {
		if a == "" || len(a) > maxArgLen {
			return fmt.Errorf("spec: command argument %q: empty or over %d characters", a, maxArgLen)
		}
		if strings.HasPrefix(a, "/") || a == ".." || strings.HasPrefix(a, "../") || strings.Contains(a, "/../") || strings.HasSuffix(a, "/..") {
			return fmt.Errorf("spec: command argument %q leaves the checkout", a)
		}
	}
	if len(s.Paths) == 0 || len(s.Paths) > maxPaths {
		return fmt.Errorf("spec: %d paths, want 1..%d", len(s.Paths), maxPaths)
	}
	for _, p := range s.Paths {
		if !pathRE.MatchString(p) || strings.HasPrefix(p, "/") || p == ".." || strings.HasPrefix(p, "../") || strings.Contains(p, "/../") {
			return fmt.Errorf("spec: bad path %q", p)
		}
	}
	if s.RunSeconds < 1 || s.RunSeconds > maxRunSeconds {
		return fmt.Errorf("spec: run_seconds %d, want 1..%d", s.RunSeconds, maxRunSeconds)
	}
	if len(s.Workloads) < minWorkloads || len(s.Workloads) > maxWorkloads {
		return fmt.Errorf("spec: %d workloads, want %d..%d", len(s.Workloads), minWorkloads, maxWorkloads)
	}
	if len(s.EndToEnd) < 1 || len(s.EndToEnd) > maxEndToEnd {
		return fmt.Errorf("spec: %d end_to_end metrics, want 1..%d", len(s.EndToEnd), maxEndToEnd)
	}
	if len(s.PerLayer) < 1 || len(s.PerLayer) > maxPerLayer {
		return fmt.Errorf("spec: %d per_layer metrics, want 1..%d", len(s.PerLayer), maxPerLayer)
	}
	seen := map[string]bool{}
	name := func(n string) error {
		if !nameRE.MatchString(n) {
			return fmt.Errorf("spec: bad name %q", n)
		}
		if seen[n] {
			return fmt.Errorf("spec: name %q used twice", n)
		}
		seen[n] = true
		return nil
	}
	for _, w := range s.Workloads {
		if err := name(w.Name); err != nil {
			return err
		}
		if w.Why == "" || len(w.Why) > maxWhyLen || strings.ContainsAny(w.Why, "\r\n") {
			return fmt.Errorf("spec: workload %q: why must be one line of 1..%d characters", w.Name, maxWhyLen)
		}
	}
	check := func(m metric, e2e bool) error {
		if err := name(m.Name); err != nil {
			return err
		}
		if !unitRE.MatchString(m.Unit) {
			return fmt.Errorf("spec: metric %q: bad unit %q", m.Name, m.Unit)
		}
		if m.Better != "lower" && m.Better != "higher" {
			return fmt.Errorf("spec: metric %q: better must be lower or higher, got %q", m.Name, m.Better)
		}
		if e2e && (m.Bound == nil || *m.Bound <= 0 || *m.Bound > maxBound) {
			return fmt.Errorf("spec: metric %q: bound must be in (0, %g]", m.Name, maxBound)
		}
		return nil
	}
	hasSetup := false
	for _, m := range s.EndToEnd {
		if err := check(m, true); err != nil {
			return err
		}
		if m.Name == setupMetricName {
			if m.Unit != "s" || m.Better != "lower" {
				return fmt.Errorf("spec: %s must have unit s and better lower", setupMetricName)
			}
			hasSetup = true
		}
	}
	if !hasSetup {
		return fmt.Errorf("spec: no %s metric", setupMetricName)
	}
	for _, m := range s.PerLayer {
		if err := check(m, false); err != nil {
			return err
		}
	}
	return nil
}

// hasWorkload reports whether name is a declared workload.
func (s *spec) hasWorkload(name string) bool {
	for _, w := range s.Workloads {
		if w.Name == name {
			return true
		}
	}
	return false
}
