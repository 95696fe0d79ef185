package main

import (
	"fmt"
	"time"

	"repro/internal/core"
)

// localSimRuns is how many all-local runs the module.local_sim_ms probe
// times; it reports their median.
const localSimRuns = 9

// localSimProbe times core.Run(AllLocal) at the paper's size with the
// stimulus the workload seed selects first: the cost of the local
// simulation kernel and modules with no RMI at all. Its spans carry
// probeOp.
func localSimProbe(tr *tracer, seed int64) error {
	p := pinsFor("mr-inproc")[pinOrder(seed, len(pinsFor("mr-inproc")))[0]]
	cfg := core.DefaultConfig()
	cfg.Seed = p.Seed
	for i := 0; i < localSimRuns; i++ {
		s := tr.open(probeOp, 0, "module.local_sim")
		res, err := core.Run(core.AllLocal, cfg)
		s.close()
		if err != nil {
			return fmt.Errorf("local-sim probe: %w", err)
		}
		// The same stimulus yields the same products however the
		// multiplier is deployed.
		if res.Products != p.Products {
			return fmt.Errorf("local-sim probe: %d products, the remote run pinned %d", res.Products, p.Products)
		}
	}
	return nil
}

func ms(ns int64) float64 { return float64(ns) / float64(time.Millisecond) }

// layerMetrics derives the per-layer metrics from a traced phase p: span
// self times and counts, op attributes, the phase's runtime counters,
// and the untraced phase base for the tracing overhead. Per-op values
// are means over p's ops; exact counts are means over its first
// countOps ops. A layer the workload does not reach reads 0.
func layerMetrics(tr *tracer, p, base *phase) map[string]float64 {
	n := float64(p.completed())
	self := selfTimes(tr.spans)
	selfMS := map[string]float64{}
	durMS := map[string][]float64{}
	firstSpans := map[string]float64{}
	for i, s := range tr.spans {
		durMS[s.Name] = append(durMS[s.Name], ms(s.dur()))
		if s.Op == probeOp {
			continue
		}
		selfMS[s.Name] += ms(self[i])
		if s.Op < countOps {
			firstSpans[s.Name]++
		}
	}
	attrSum := map[string]float64{}
	attrFirst := map[string]float64{}
	probe := map[string]float64{}
	for _, a := range tr.attrs {
		switch {
		case a.Op == probeOp:
			probe[a.Name] += a.Value
		default:
			attrSum[a.Name] += a.Value
			if a.Op < countOps {
				attrFirst[a.Name] += a.Value
			}
		}
	}
	p50 := func(name string) float64 {
		if len(durMS[name]) == 0 {
			return 0
		}
		return percentile(sortedCopy(durMS[name]), 0.5)
	}
	serverCall := 0.0
	if c := probe["gateway.latency_count"]; c > 0 {
		serverCall = probe["gateway.latency_sum_s"] / c * 1e6
	}
	basep50 := percentile(sortedCopy(base.lat), 0.5)
	return map[string]float64{
		"core.sim_ms":                   attrSum["core.sim_ms"] / n,
		"core.drain_ms":                 attrSum["core.drain_ms"] / n,
		"core.host_ms":                  attrSum["core.host_ms"] / n,
		"core.run_self_ms":              selfMS["core.run"] / n,
		"netsim.emu_wait_ms":            attrSum["netsim.emu_wait_ms"] / n,
		"rmi.calls":                     attrFirst["rmi.calls"] / countOps,
		"rmi.wire_bytes":                attrSum["rmi.wire_bytes"] / n,
		"rmi.wire_writes":               attrSum["rmi.wire_writes"] / n,
		"provider.eval_ms":              selfMS["provider.eval"] / n,
		"provider.eval_calls":           firstSpans["provider.eval"] / countOps,
		"provider.power_ms":             selfMS["provider.power"] / n,
		"provider.power_calls":          firstSpans["provider.power"] / countOps,
		"provider.session_ms":           selfMS["provider.session"] / n,
		"module.local_sim_ms":           p50("module.local_sim"),
		"fault.faultlist_ms":            selfMS["fault.faultlist"] / n,
		"fault.table_ms":                selfMS["fault.table"] / n,
		"fault.table_calls":             attrFirst["fault.table_calls"] / countOps,
		"fault.inject_ms":               selfMS["fault.campaign"] / n,
		"fault.injection_runs":          attrFirst["fault.injection_runs"] / countOps,
		"fault.fault_free_runs":         attrFirst["fault.fault_free_runs"] / countOps,
		"gateway.dial_ms_p50":           p50("gateway.dial"),
		"rmi.call_rtt_us_p50":           1000 * p50("rmi.attempt"),
		"gateway.server_call_us_mean":   serverCall,
		"gateway.ledger_entries_per_op": probe["gateway.ledger_entries"] / n,
		"gateway.calls_per_op":          probe["gateway.calls"] / n,
		"gateway.rejections":            probe["gateway.rejections"],
		"runtime.gc_cycles_per_op":      float64(p.rt1.gcCycles-p.rt0.gcCycles) / n,
		"runtime.gc_cpu_ms_per_op":      1000 * (p.rt1.gcCPU - p.rt0.gcCPU) / n,
		"runtime.mutex_wait_ms_per_op":  1000 * (p.rt1.mutexWait - p.rt0.mutexWait) / n,
		"trace.overhead_pct":            100 * (percentile(sortedCopy(p.lat), 0.5) - basep50) / basep50,
	}
}
