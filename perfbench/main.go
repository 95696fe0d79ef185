// Command perfbench is the repository's benchmark. It runs one named
// workload against the program's public packages, checks every output
// against an oracle, and prints the end-to-end metrics (or, with
// --trace 1, the per-layer metrics) named in BENCHMARK.json. The last
// line of its output is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// Run it from the repository root through its launcher, which builds it
// from the checkout's sources:
//
//	bash perfbench/run.sh --workload mr-inproc --seed 1 --seconds 24 --trace 0
//
// See README.md in this directory for the workloads and metrics.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"time"
)

// processStart approximates process start: package initialization runs
// before main, and nothing before it does measurable work.
var processStart = time.Now()

const (
	specFile = "BENCHMARK.json"
	// setupRounds is how many times a run builds its fixtures and warms
	// up; setup_s is the median.
	setupRounds = 5
	// runLimit bounds a whole run; past it the run fails rather than
	// overrun the harness's time limit.
	runLimit = 170 * time.Second
	// countOps is how many leading ops of the traced phase the exact
	// per-op counts are taken over, so they repeat for a fixed seed
	// whatever the run's speed.
	countOps = 20
	// traceDir holds one trace file per traced run.
	traceDir = ".bench_build/perfbench/traces"
)

// workload describes how to set up one named workload.
type workload struct {
	callers int
	// warmup is the number of untimed ops each set-up round ends with.
	warmup int
	setup  func(seed int64) (instance, error)
}

var workloads = map[string]workload{
	"mr-inproc":        {callers: 1, warmup: 12, setup: newScenario("mr-inproc")},
	"er-wan":           {callers: 1, warmup: 1, setup: newScenario("er-wan")},
	"fault-campaign":   {callers: 1, warmup: 4, setup: newFaultCampaign},
	"gateway-sessions": {callers: runtime.NumCPU(), warmup: 200, setup: newGatewaySessions},
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// result is the final output line.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// record is the stamped line printed before the result, and the first
// line of a trace file.
type record struct {
	Stamp   stamp              `json:"stamp"`
	Callers int                `json:"callers"`
	Samples int                `json:"samples"`
	WallS   float64            `json:"window_s"`
	SetupS  []float64          `json:"setup_rounds_s"`
	Metrics map[string]float64 `json:"metrics"`
	Errors  []string           `json:"errors,omitempty"`
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload name (see BENCHMARK.json)")
	seed := fs.Int64("seed", 1, "workload seed: the same seed gives the same inputs")
	seconds := fs.Int("seconds", 24, "measurement window in seconds")
	traceFlag := fs.Int("trace", 0, "1 runs the traced variant and prints per-layer metrics")
	pin := fs.Bool("pin", false, "print the oracle pins of the scenario workloads and exit")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *pin {
		if err := printPins(stdout); err != nil {
			fmt.Fprintln(stderr, "perfbench:", err)
			return 1
		}
		return 0
	}
	data, err := os.ReadFile(specFile)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench: run from the repository root:", err)
		return 2
	}
	sp, err := parseSpec(data)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 2
	}
	wl, ok := workloads[*name]
	if !ok || !sp.hasWorkload(*name) {
		fmt.Fprintf(stderr, "perfbench: unknown workload %q\n", *name)
		return 2
	}
	if *seconds < 1 || (*traceFlag != 0 && *traceFlag != 1) {
		fmt.Fprintln(stderr, "perfbench: --seconds must be positive and --trace 0 or 1")
		return 2
	}
	b := &bench{
		name:     *name,
		wl:       wl,
		seed:     *seed,
		window:   time.Duration(*seconds) * time.Second,
		deadline: processStart.Add(runLimit),
		stamp:    newStamp(*name, *seed, *traceFlag),
	}
	var res *result
	var rec *record
	if *traceFlag == 1 {
		res, rec, err = b.traced(sp)
	} else {
		res, rec, err = b.untraced(sp)
	}
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	for _, e := range rec.Errors {
		fmt.Fprintln(stderr, "perfbench:", e)
	}
	line, err := json.Marshal(map[string]any{"record": rec})
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	line, err = json.Marshal(res)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	if !res.Correct {
		return 1
	}
	return 0
}

// bench is one run of one workload.
type bench struct {
	name     string
	wl       workload
	seed     int64
	window   time.Duration
	deadline time.Time
	stamp    stamp
}

// setUp builds the fixtures setupRounds times, each round ending with a
// fixed warm-up, and keeps the last instance. The first round is timed
// from process start.
func (b *bench) setUp() (instance, []float64, error) {
	var inst instance
	var rounds []float64
	for r := 0; r < setupRounds; r++ {
		if inst != nil {
			if err := inst.close(); err != nil {
				return nil, nil, fmt.Errorf("set-up round %d: close: %w", r, err)
			}
		}
		t0 := time.Now()
		if r == 0 {
			t0 = processStart
		}
		var err error
		inst, err = b.wl.setup(b.seed)
		if err != nil {
			return nil, nil, fmt.Errorf("set-up: %w", err)
		}
		p := runPhase(inst, b.wl.callers, phaseOpts{count: b.wl.warmup, deadline: b.deadline})
		if err := p.err(); err != nil {
			inst.close()
			return nil, nil, fmt.Errorf("warm-up: %w", err)
		}
		rounds = append(rounds, time.Since(t0).Seconds())
	}
	return inst, rounds, nil
}

// err is the phase's first failure, if any.
func (p *phase) err() error {
	if len(p.errs) > 0 {
		return p.errs[0]
	}
	return nil
}

// measure runs one timed phase. It fails when the run deadline cut the
// phase short or fewer than minOps ops succeeded.
func (b *bench) measure(inst instance, dur time.Duration, minOps int, tr *tracer) (*phase, error) {
	p := runPhase(inst, b.wl.callers, phaseOpts{dur: dur, minOps: minOps, deadline: b.deadline, tr: tr})
	for _, e := range p.errs {
		if errors.Is(e, errDeadline) {
			return nil, e
		}
	}
	if p.completed() < minOps {
		return nil, fmt.Errorf("%d of %d ops completed, want at least %d", p.completed(), p.ops, minOps)
	}
	return p, nil
}

func (b *bench) untraced(sp *spec) (*result, *record, error) {
	inst, rounds, err := b.setUp()
	if err != nil {
		return nil, nil, err
	}
	defer inst.close()
	p, err := b.measure(inst, b.window, minSamples(0.9), nil)
	if err != nil {
		return nil, nil, err
	}
	finishErr := inst.finish()
	rss, err := peakRSSMB()
	if err != nil {
		return nil, nil, err
	}
	lat := sortedCopy(p.lat)
	if err := checkTail(len(lat), 0.9); err != nil {
		return nil, nil, err
	}
	n := float64(p.completed())
	vals := map[string]float64{
		"setup_s":         median(rounds),
		"ops_per_s":       n / p.busy().Seconds(),
		"op_ms_p50":       percentile(lat, 0.5),
		"op_ms_p90":       percentile(lat, 0.9),
		"cpu_ms_per_op":   float64(p.cpu) / float64(time.Millisecond) / n,
		"alloc_kb_per_op": float64(p.alloc) / 1024 / n,
		"rss_peak_mb":     rss,
		"ok_frac":         n / float64(p.ops),
	}
	return b.report(sp.EndToEnd, vals, p, p, rounds, finishErr)
}

func (b *bench) traced(sp *spec) (*result, *record, error) {
	inst, rounds, err := b.setUp()
	if err != nil {
		return nil, nil, err
	}
	defer inst.close()
	half := b.window / 2
	base, err := b.measure(inst, half, countOps, nil)
	if err != nil {
		return nil, nil, err
	}
	tr := newTracer()
	if err := localSimProbe(tr, b.seed); err != nil {
		return nil, nil, err
	}
	p, err := b.measure(inst, half, countOps, tr)
	if err != nil {
		return nil, nil, err
	}
	finishErr := inst.finish()
	vals := layerMetrics(tr, p, base)
	all := &phase{ops: base.ops + p.ops, failed: base.failed + p.failed, errs: append(base.errs, p.errs...)}
	res, rec, err := b.report(sp.PerLayer, vals, all, p, rounds, finishErr)
	if err != nil {
		return nil, nil, err
	}
	if err := os.MkdirAll(traceDir, 0o755); err != nil {
		return nil, nil, err
	}
	path := filepath.Join(traceDir, fmt.Sprintf("%s-seed%d.jsonl.gz", b.name, b.seed))
	if err := tr.write(path, rec); err != nil {
		return nil, nil, fmt.Errorf("write trace: %w", err)
	}
	return res, rec, nil
}

// report assembles the result line and the stamped record. Every metric
// the spec lists must have been measured, and no other.
func (b *bench) report(want []metric, vals map[string]float64, counted, measured *phase, rounds []float64, finishErr error) (*result, *record, error) {
	res := &result{Attempted: counted.ops, Failed: counted.failed, Metrics: map[string]metricValue{}}
	for _, m := range want {
		v, ok := vals[m.Name]
		if !ok {
			return nil, nil, fmt.Errorf("metric %q is in %s but not measured", m.Name, specFile)
		}
		res.Metrics[m.Name] = metricValue{Value: v, Unit: m.Unit}
	}
	if len(vals) != len(want) {
		return nil, nil, fmt.Errorf("measured %d metrics, %s lists %d", len(vals), specFile, len(want))
	}
	rec := &record{
		Stamp:   b.stamp,
		Callers: b.wl.callers,
		Samples: len(measured.lat),
		WallS:   measured.wall.Seconds(),
		SetupS:  rounds,
		Metrics: vals,
	}
	for _, e := range counted.errs {
		rec.Errors = append(rec.Errors, e.Error())
	}
	if finishErr != nil {
		rec.Errors = append(rec.Errors, "run-end check: "+finishErr.Error())
	}
	res.Correct = counted.failed == 0 && finishErr == nil
	return res, rec, nil
}
