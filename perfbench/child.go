package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"runtime/metrics"
	"runtime/pprof"
	"time"

	"pase"
)

// childEnv marks a process started by the benchmark to run one
// simulation; the benchmark's own binary (or test binary) re-executes
// itself with it set, so every measured simulation is a fresh process.
const childEnv = "PERFBENCH_CHILD"

// childResult is what a child process prints as its one line of
// standard output.
type childResult struct {
	// WallNS is the host time of the Simulate call (of all calls of it
	// when looping).
	WallNS int64 `json:"wall_ns"`

	Flows      int     `json:"flows"`
	Completed  int     `json:"completed"`
	Aborted    int     `json:"aborted"`
	AFCTNS     int64   `json:"afct_ns"`
	P50NS      int64   `json:"p50_ns"`
	P99NS      int64   `json:"p99_ns"`
	LossRate   float64 `json:"loss_rate"`
	Retx       int64   `json:"retx"`
	Timeouts   int64   `json:"timeouts"`
	CtrlMsgs   int64   `json:"ctrl_msgs"`
	Violations int64   `json:"violations"`

	Obs *pase.Snapshot `json:"obs,omitempty"`

	// Runtime costs over the Simulate call(s).
	Mallocs    uint64  `json:"mallocs"`
	AllocBytes uint64  `json:"alloc_bytes"`
	GCCycles   uint32  `json:"gc_cycles"`
	GCCPUS     float64 `json:"gc_cpu_s"`
	BusyCPUS   float64 `json:"busy_cpu_s"`

	Spans []span `json:"spans,omitempty"`
}

// summaryKey is the simulated outcome every run of one workload, seed
// and flow count must reproduce exactly, whatever instrumentation is on.
func (r *childResult) summaryKey() string {
	return fmt.Sprintf("flows=%d completed=%d aborted=%d afct=%d p50=%d p99=%d loss=%016x retx=%d timeouts=%d ctrl=%d",
		r.Flows, r.Completed, r.Aborted, r.AFCTNS, r.P50NS, r.P99NS,
		math.Float64bits(r.LossRate), r.Retx, r.Timeouts, r.CtrlMsgs)
}

// childMain runs one simulation as described by args and prints a
// childResult. It returns the process exit code.
func childMain(args []string, stdout io.Writer) int {
	fs := flag.NewFlagSet("perfbench child", flag.ContinueOnError)
	name := fs.String("workload", "", "workload name")
	seed := fs.Uint64("seed", defaultSeed, "workload seed")
	flows := fs.Int("flows", 0, "flow count (0 = the workload's)")
	withObs := fs.Bool("obs", false, "collect the Obs snapshot")
	withCheck := fs.Bool("check", false, "attach the invariant checker")
	withSpans := fs.Bool("spantrace", false, "record the span flight recording")
	profile := fs.String("cpuprofile", "", "write a CPU profile of the Simulate call(s) here")
	loop := fs.Duration("loop", 0, "repeat the Simulate call until this much host time has passed")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w, ok := lookupWorkload(*name)
	if !ok {
		fmt.Fprintf(os.Stderr, "perfbench child: unknown workload %q\n", *name)
		return 2
	}
	if *flows == 0 {
		*flows = w.Flows
	}
	cfg := pase.SimConfig{
		Protocol: w.Protocol, Scenario: w.Scenario, Load: w.Load, Stream: w.Stream,
		NumFlows: *flows, Seed: *seed,
		Obs: *withObs, Check: *withCheck, SpanTrace: *withSpans,
	}

	var rec spanRecorder
	if *profile != "" {
		f, err := os.Create(*profile)
		if err != nil {
			fmt.Fprintf(os.Stderr, "perfbench child: %v\n", err)
			return 1
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			fmt.Fprintf(os.Stderr, "perfbench child: start profile: %v\n", err)
			return 1
		}
	}
	before := readRuntime()
	var rep *pase.Report
	var wall time.Duration
	calls := 0
	for calls == 0 || wall < *loop {
		id := rec.begin("simulate", -1)
		start := time.Now()
		var err error
		rep, err = pase.Simulate(cfg)
		wall += time.Since(start)
		rec.end(id)
		calls++
		if err != nil {
			fmt.Fprintf(os.Stderr, "perfbench child: simulate: %v\n", err)
			return 1
		}
	}
	if *profile != "" {
		pprof.StopCPUProfile()
	}
	after := readRuntime()

	id := rec.begin("extract", -1)
	res := childResult{
		WallNS: int64(wall),
		Flows:  rep.Flows, Completed: rep.Completed, Aborted: rep.Aborted,
		AFCTNS: int64(rep.AFCT), P50NS: int64(rep.P50), P99NS: int64(rep.P99),
		LossRate: rep.LossRate, Retx: rep.Retransmits, Timeouts: rep.Timeouts,
		CtrlMsgs: rep.CtrlMessages, Violations: rep.Violations,
		Obs:        rep.Obs,
		Mallocs:    after.mallocs - before.mallocs,
		AllocBytes: after.allocBytes - before.allocBytes,
		GCCycles:   after.gcCycles - before.gcCycles - 1, // less the settling GC
		GCCPUS:     after.gcCPU - before.gcCPU,
		BusyCPUS:   after.busyCPU - before.busyCPU,
	}
	for _, d := range rep.ViolationDetails {
		fmt.Fprintln(os.Stderr, "perfbench child: violation:", d)
	}
	rec.end(id)
	res.Spans = rec.spans
	if err := json.NewEncoder(stdout).Encode(&res); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench child: %v\n", err)
		return 1
	}
	return 0
}

// runtimeCounters are the process-wide runtime costs read around the
// Simulate call.
type runtimeCounters struct {
	mallocs, allocBytes uint64
	gcCycles            uint32
	gcCPU, busyCPU      float64
}

var cpuClasses = []string{
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/user:cpu-seconds",
	"/cpu/classes/scavenge/total:cpu-seconds",
}

func readRuntime() runtimeCounters {
	runtime.GC() // settle the CPU-class estimates, which update at GC
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	samples := make([]metrics.Sample, len(cpuClasses))
	for i, n := range cpuClasses {
		samples[i].Name = n
	}
	metrics.Read(samples)
	c := runtimeCounters{mallocs: ms.Mallocs, allocBytes: ms.TotalAlloc, gcCycles: ms.NumGC}
	for i, s := range samples {
		if s.Value.Kind() != metrics.KindFloat64 {
			continue
		}
		v := s.Value.Float64()
		if i == 0 {
			c.gcCPU = v
		}
		c.busyCPU += v
	}
	return c
}
