package main

import "pase"

// workload is one named benchmark input: a simulation point run through
// pase.Simulate with the program's default settings (serial engine,
// Obs/Check/SpanTrace off in timed runs). The seed is a run argument;
// everything else is fixed here.
type workload struct {
	Name     string
	Why      string
	Protocol pase.Protocol
	Scenario pase.Scenario
	Load     float64
	Stream   bool
	// Flows is the timed-run flow count, sized so that one simulation
	// takes about a second on a 2-core host and a run holds a dozen or
	// more: host speed drifts by tens of percent over seconds on a
	// shared machine, and a median over many short simulations rides
	// that out better than one over a few long ones.
	Flows int
	// TinyFlows is the flow count of the tests' tiny-size runs.
	TinyFlows int
}

// workloads is the benchmark's workload table. BENCHMARK.json lists the
// same names and reasons; TestBenchmarkJSONMatchesProgram keeps them in
// step. README.md records the measurements behind each choice.
var workloads = []workload{
	{
		Name:     "pase-leftright",
		Why:      "the paper's headline Fig 9a point: PASE arbitration plus 8 priority queues on the left-right fabric, stored collector",
		Protocol: pase.ProtocolPASE, Scenario: pase.ScenarioLeftRight, Load: 0.8,
		Flows: 1200, TinyFlows: 40,
	},
	{
		Name:     "dctcp-leafspine-stream",
		Why:      "no control plane: RED-ECN marks, drops, retransmits, ECMP and the streaming workload iterator and sketch",
		Protocol: pase.ProtocolDCTCP, Scenario: pase.ScenarioLeafSpineWide, Load: 0.6, Stream: true,
		Flows: 2500, TinyFlows: 40,
	},
	{
		Name:     "expresspass-incast",
		Why:      "credit transport under 256-to-1 incast: the same netem and sim layers carrying mostly credits, many of them dropped",
		Protocol: pase.ProtocolExpressPass, Scenario: pase.ScenarioIncast256, Load: 0.5, Stream: true,
		Flows: 2500, TinyFlows: 40,
	},
	{
		Name:     "pase-ctrlscale",
		Why:      "the deep arbitration hierarchy at 1024 racks: the most control messages per flow and the only costly set-up",
		Protocol: pase.ProtocolPASE, Scenario: "ctrlscale-1024", Load: 0.6,
		Flows: 1000, TinyFlows: 20,
	},
}

func lookupWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.Name == name {
			return w, true
		}
	}
	return workload{}, false
}

// The default seed is the one runs are tuned on; the held-out seed is
// for rechecking a claim on a seed it was not tuned on.
const (
	defaultSeed = 1
	heldOutSeed = 9001
)

// metricDef names one reported metric. Better is "higher" or "lower".
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// endToEnd are the metrics a user of the simulator sees, printed by
// every timed run (--trace 0).
var endToEnd = []metricDef{
	{Name: "flows_per_s", Unit: "flows/s", Better: "higher", Bound: 0.25},
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25},
	{Name: "peak_rss_mb", Unit: "MB", Better: "lower", Bound: 0.15},
}

// perLayer are the single-layer metrics printed by a traced run
// (--trace 1), named after the modules they measure.
var perLayer = []metricDef{
	{Name: "sim.events_per_flow", Unit: "count", Better: "lower"},
	{Name: "sim.heap_depth_max", Unit: "count", Better: "lower"},
	{Name: "sim.timers_stopped_ratio", Unit: "ratio", Better: "lower"},
	{Name: "sim.cpu_share", Unit: "ratio", Better: "lower"},
	{Name: "sim.schedule_fire_ns", Unit: "ns", Better: "lower"},
	{Name: "netem.enq_per_flow", Unit: "count", Better: "lower"},
	{Name: "netem.drop_ratio", Unit: "ratio", Better: "lower"},
	{Name: "netem.mark_ratio", Unit: "ratio", Better: "lower"},
	{Name: "netem.cpu_share", Unit: "ratio", Better: "lower"},
	{Name: "netem.queue_op_ns", Unit: "ns", Better: "lower"},
	{Name: "runtime.allocs_per_event", Unit: "count", Better: "lower"},
	{Name: "runtime.alloc_bytes_per_event", Unit: "B", Better: "lower"},
	{Name: "runtime.gc_cpu_share", Unit: "ratio", Better: "lower"},
	{Name: "runtime.gc_cycles", Unit: "count", Better: "lower"},
	{Name: "transport.retx_per_flow", Unit: "count", Better: "lower"},
	{Name: "transport.timeouts_per_flow", Unit: "count", Better: "lower"},
	{Name: "transport.credit_waste_ratio", Unit: "ratio", Better: "lower"},
	{Name: "transport.cpu_share", Unit: "ratio", Better: "lower"},
	{Name: "arbitration.msgs_per_flow", Unit: "count", Better: "lower"},
	{Name: "arbitration.refreshes_per_flow", Unit: "count", Better: "lower"},
	{Name: "arbitration.ctrl_wait_p50_us", Unit: "us", Better: "lower"},
	{Name: "arbitration.ctrl_wait_p99_us", Unit: "us", Better: "lower"},
	{Name: "arbitration.cpu_share", Unit: "ratio", Better: "lower"},
	{Name: "arbitration.update_ns", Unit: "ns", Better: "lower"},
	{Name: "topology.setup_cpu_share", Unit: "ratio", Better: "lower"},
	{Name: "workload.cpu_share", Unit: "ratio", Better: "lower"},
	{Name: "metrics.cpu_share", Unit: "ratio", Better: "lower"},
	{Name: "metrics.collector_add_ns", Unit: "ns", Better: "lower"},
	{Name: "trace.overhead_pct", Unit: "%", Better: "lower"},
	{Name: "check.overhead_pct", Unit: "%", Better: "lower"},
}
