// Command benchsnap records a performance snapshot of the evaluation
// pipeline: engine micro-benchmark ns/op plus wall-clock and headline
// metrics for a set of figures, plus a streaming-vs-stored memory
// comparison, written as BENCH_<date>.json. Commit one snapshot per
// perf-relevant PR and the series becomes the perf trajectory of the
// repository.
//
// Examples:
//
//	benchsnap                         # default figure set, BENCH_<date>.json
//	benchsnap -figs 9a,10a -flows 500
//	benchsnap -out snapshots/ -parallel 1
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"

	"pase"
	"pase/internal/core/arbitration"
	"pase/internal/experiments"
	"pase/internal/netem"
	"pase/internal/pkt"
	"pase/internal/route"
	"pase/internal/sim"
	"pase/internal/topology"
)

// Snapshot is the schema of one BENCH_<date>.json file.
type Snapshot struct {
	Date        string         `json:"date"`
	GoVersion   string         `json:"go_version"`
	GOMAXPROCS  int            `json:"gomaxprocs"`
	Parallelism int            `json:"parallelism"`
	Flows       int            `json:"flows"`
	GitRev      string         `json:"git_rev,omitempty"`
	Engine      EngineBench    `json:"engine"`
	Figures     []FigureRecord `json:"figures"`
	TotalMS     float64        `json:"total_ms"`
	// Obs is the observability snapshot merged across every figure run
	// of the session — total events fired, packets forwarded, drops,
	// retransmissions — so perf regressions can be traced to workload
	// shifts (more retx, deeper queues) rather than guessed at.
	Obs *pase.Snapshot `json:"obs,omitempty"`
	// Memory compares the stored collector against the streaming sink
	// on one identical point, pinning the bounded-memory trajectory.
	Memory *MemBench `json:"memory,omitempty"`
	// Trace compares a figure-9a point with and without the span flight
	// recorder attached, pinning the flight recorder's cost. The
	// recorder budget is ≤2% overhead when disabled; the on-column
	// records the full recording cost.
	Trace *TraceBench `json:"trace,omitempty"`
	// TE pins the routing control loop: a RouteTable failover
	// micro-benchmark (the reroute latency of one link-state event) and
	// the te-failover point timed with the reroute+TE loop on versus
	// off, so TE-epoch overhead shows up as a wall-clock delta.
	TE *TEBench `json:"te,omitempty"`
	// CtrlScale pins the arbitration control plane: an
	// Arbitrator.Update micro-benchmark (the messages/sec ceiling of
	// one arbitration book) plus one ctrlscale point per control-plane
	// arm with its wall clock, control traffic and per-level mean
	// control RTT.
	CtrlScale *CtrlBench `json:"ctrlscale,omitempty"`
}

// CtrlBench is the arbitration control-plane cost record.
type CtrlBench struct {
	Flows         int       `json:"flows"`
	Racks         int       `json:"racks"`
	UpdateNsOp    float64   `json:"update_ns_per_op"`
	UpdatesPerSec float64   `json:"updates_per_sec"`
	Arms          []CtrlArm `json:"arms"`
}

// CtrlArm is one control-plane configuration's ctrlscale point.
type CtrlArm struct {
	Name         string  `json:"name"`
	WallMS       float64 `json:"wall_ms"`
	CtrlMessages int64   `json:"ctrl_messages"`
	CtrlBytes    int64   `json:"ctrl_bytes"`
	// LevelRTTNs[d] is the mean control round-trip observed at climb
	// depth d (arb/rtt/level<d>), in nanoseconds; levels that saw no
	// exchange are zero.
	LevelRTTNs []float64 `json:"level_rtt_ns"`
}

// TEBench is the routing-control-loop cost record. FailoverNsOp is one
// SetUplink(down) + Pick + SetUplink(up) cycle — the copy-on-write
// epoch swap plus the survivor-scan lookup a failure triggers. The
// on/off columns time the same fault-free te-failover point with and
// without the control loop attached, best of Reps each, so OverheadPct
// is the pure cost of the periodic TE epochs and link-state plumbing.
type TEBench struct {
	Flows        int     `json:"flows"`
	Reps         int     `json:"reps"`
	OffMS        float64 `json:"off_ms"`
	OnMS         float64 `json:"on_ms"`
	OverheadPct  float64 `json:"overhead_pct"`
	FailoverNsOp float64 `json:"failover_ns_per_op"`
}

// TraceBench is the flight-recorder overhead record: the same point
// timed trace-off and trace-on (best of Reps each).
type TraceBench struct {
	Flows       int     `json:"flows"`
	Reps        int     `json:"reps"`
	OffMS       float64 `json:"off_ms"`
	OnMS        float64 `json:"on_ms"`
	OverheadPct float64 `json:"overhead_pct"`
}

// MemBench is the streaming-vs-stored memory comparison: one point
// (DCTCP, intra-rack, load 0.6) run twice, measuring bytes allocated
// over the run and bytes still live after it (post-GC, result held).
// Stored mode retains O(flows) records and senders; streaming retains
// O(in-flight) plus a fixed-size quantile sketch, so the retained
// column is the headline number.
type MemBench struct {
	Flows               int    `json:"flows"`
	StoredAllocBytes    uint64 `json:"stored_alloc_bytes"`
	StreamAllocBytes    uint64 `json:"stream_alloc_bytes"`
	StoredRetainedBytes uint64 `json:"stored_retained_bytes"`
	StreamRetainedBytes uint64 `json:"stream_retained_bytes"`
}

// EngineBench holds the in-process simulator micro-benchmarks.
type EngineBench struct {
	ScheduleFireNsOp float64 `json:"schedule_fire_ns_per_op"`
	TimerChurnNsOp   float64 `json:"timer_churn_ns_per_op"`
}

// FigureRecord is one figure's timing plus its headline metrics (the
// final Y value of every series — what the bench harness reports).
type FigureRecord struct {
	ID      string             `json:"id"`
	WallMS  float64            `json:"wall_ms"`
	Loads   []float64          `json:"loads,omitempty"`
	Metrics map[string]float64 `json:"metrics"`
}

func main() {
	var (
		figs       = flag.String("figs", "3,9a,9b,10a,10c,probing", "comma-separated figure ids to snapshot")
		flows      = flag.Int("flows", 250, "foreground flows per simulation point")
		seed       = flag.Uint64("seed", 1, "workload seed")
		loads      = flag.String("loads", "0.5,0.8", "load sweep for the swept figures")
		parallel   = flag.Int("parallel", 0, "simulation points run concurrently (0 = one per CPU)")
		memflows   = flag.Int("memflows", 20_000, "flows for the streaming-vs-stored memory comparison (0 disables)")
		traceflows = flag.Int("traceflows", 2000, "flows for the trace-on/off overhead point (0 disables the section)")
		teflows    = flag.Int("teflows", 2000, "flows for the routing/TE control-loop overhead point (0 disables the section)")
		ctrlflows  = flag.Int("ctrlflows", 400, "flows for the arbitration control-plane section (0 disables the section)")
		ctrlracks  = flag.Int("ctrlracks", 64, "ctrlscale fabric size for the control-plane section")
		out        = flag.String("out", "", "output file or directory (default BENCH_<date>.json in the working directory)")
	)
	flag.Parse()

	var loadVals []float64
	for _, s := range strings.Split(*loads, ",") {
		var v float64
		if _, err := fmt.Sscanf(strings.TrimSpace(s), "%g", &v); err != nil {
			fmt.Fprintf(os.Stderr, "benchsnap: bad load %q: %v\n", s, err)
			os.Exit(1)
		}
		loadVals = append(loadVals, v)
	}

	snap := Snapshot{
		Date:        time.Now().Format("2006-01-02"),
		GoVersion:   runtime.Version(),
		GOMAXPROCS:  runtime.GOMAXPROCS(0),
		Parallelism: *parallel,
		Flows:       *flows,
		GitRev:      pase.GitRev(),
		Engine:      benchEngine(),
	}

	start := time.Now()
	var obsSnaps []*pase.Snapshot
	for _, id := range strings.Split(*figs, ",") {
		id = strings.TrimSpace(id)
		opts := pase.FigureOpts{NumFlows: *flows, Seed: *seed, Parallelism: *parallel, Obs: true}
		// CDF figures and the toy example define their own grids.
		if id != "3" && !strings.HasSuffix(id, "b") {
			opts.Loads = loadVals
		}
		figStart := time.Now()
		fig, err := pase.RunFigure(id, opts)
		if err != nil {
			fmt.Fprintln(os.Stderr, "benchsnap:", err)
			os.Exit(1)
		}
		rec := FigureRecord{
			ID:      id,
			WallMS:  float64(time.Since(figStart).Microseconds()) / 1000,
			Loads:   opts.Loads,
			Metrics: map[string]float64{},
		}
		for _, s := range fig.Series {
			if len(s.Y) > 0 {
				rec.Metrics[s.Name] = s.Y[len(s.Y)-1]
			}
		}
		snap.Figures = append(snap.Figures, rec)
		obsSnaps = append(obsSnaps, fig.Snapshot())
	}
	snap.TotalMS = float64(time.Since(start).Microseconds()) / 1000
	snap.Obs = pase.MergeSnapshots(obsSnaps)
	if *memflows > 0 {
		snap.Memory = benchMemory(*memflows)
	}
	if *traceflows > 0 {
		snap.Trace = benchTrace(*traceflows, 3)
	}
	if *teflows > 0 {
		snap.TE = benchTE(*teflows, 3)
	}
	if *ctrlflows > 0 {
		snap.CtrlScale = benchCtrl(*ctrlflows, *ctrlracks)
	}

	path := *out
	switch {
	case path == "":
		path = "BENCH_" + snap.Date + ".json"
	default:
		if st, err := os.Stat(path); err == nil && st.IsDir() {
			path = filepath.Join(path, "BENCH_"+snap.Date+".json")
		}
	}
	data, err := json.MarshalIndent(snap, "", "  ")
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchsnap:", err)
		os.Exit(1)
	}
	data = append(data, '\n')
	if err := os.WriteFile(path, data, 0o644); err != nil {
		fmt.Fprintln(os.Stderr, "benchsnap:", err)
		os.Exit(1)
	}
	fmt.Printf("wrote %s (%d figures, %.0f ms total, engine schedule+fire %.1f ns/op)\n",
		path, len(snap.Figures), snap.TotalMS, snap.Engine.ScheduleFireNsOp)
	if m := snap.Memory; m != nil {
		fmt.Printf("memory @ %d flows: stored %d KB retained / %d MB allocated, streaming %d KB retained / %d MB allocated\n",
			m.Flows, m.StoredRetainedBytes>>10, m.StoredAllocBytes>>20,
			m.StreamRetainedBytes>>10, m.StreamAllocBytes>>20)
	}
	if tb := snap.Trace; tb != nil {
		fmt.Printf("trace @ %d flows: off %.0f ms, on %.0f ms (%+.1f%% recording overhead)\n",
			tb.Flows, tb.OffMS, tb.OnMS, tb.OverheadPct)
	}
	if te := snap.TE; te != nil {
		fmt.Printf("te @ %d flows: off %.0f ms, on %.0f ms (%+.1f%% control-loop overhead), failover %.0f ns/op\n",
			te.Flows, te.OffMS, te.OnMS, te.OverheadPct, te.FailoverNsOp)
	}
	if cb := snap.CtrlScale; cb != nil {
		fmt.Printf("ctrl: arbitrator update %.0f ns/op (%.1fM updates/sec)\n",
			cb.UpdateNsOp, cb.UpdatesPerSec/1e6)
		for _, a := range cb.Arms {
			fmt.Printf("ctrl %s @ %d racks, %d flows: %.0f ms wall, %d ctrl messages, %d KB ctrl bytes\n",
				a.Name, cb.Racks, cb.Flows, a.WallMS, a.CtrlMessages, a.CtrlBytes>>10)
		}
	}
}

// benchCtrl micro-benchmarks one arbitration book's refresh rate —
// the per-arbitrator messages/sec ceiling — then runs one ctrlscale
// point per control-plane arm (multi-level hierarchy vs centralized)
// and scrapes its control traffic and per-level mean control RTT.
func benchCtrl(flows, racks int) *CtrlBench {
	var now sim.Time
	a := arbitration.NewArbitrator(0, 10*netem.Gbps, 8, 40*netem.Mbps,
		300*sim.Microsecond, func() sim.Time { return now })
	const book = 64
	for i := 0; i < book; i++ {
		a.Update(pkt.FlowID(i+1), int64(i), 100*netem.Mbps)
	}
	const iters = 500_000
	start := time.Now()
	for i := 0; i < iters; i++ {
		now = now.Add(sim.Microsecond)
		a.Update(pkt.FlowID(i%book+1), int64(i), 100*netem.Mbps)
	}
	nsOp := float64(time.Since(start).Nanoseconds()) / iters

	cb := &CtrlBench{Flows: flows, Racks: racks,
		UpdateNsOp: nsOp, UpdatesPerSec: 1e9 / nsOp}
	arms := []struct {
		name string
		opt  experiments.PASEOptions
	}{
		{"hierarchy", experiments.PASEOptions{}},
		{"central", experiments.PASEOptions{Central: true}},
	}
	for _, arm := range arms {
		cfg := experiments.PointConfig{
			Protocol: experiments.PASE,
			Scenario: experiments.Scenario(fmt.Sprintf("%s-%d", experiments.CtrlScale, racks)),
			Load:     0.6, Seed: 1, NumFlows: flows, Obs: true,
			PASE: arm.opt,
		}
		wallStart := time.Now()
		r := experiments.RunPoint(cfg)
		rec := CtrlArm{
			Name:   arm.name,
			WallMS: float64(time.Since(wallStart).Microseconds()) / 1000,
		}
		if r.Obs != nil {
			rec.CtrlMessages = r.Obs.Counters["arb/messages"]
			rec.CtrlBytes = r.Obs.Counters["arb/bytes"]
			for d := 0; ; d++ {
				h, ok := r.Obs.Histograms[fmt.Sprintf("arb/rtt/level%d", d)]
				if !ok {
					break
				}
				mean := 0.0
				if h.Count > 0 {
					mean = float64(h.Sum) / float64(h.Count)
				}
				rec.LevelRTTNs = append(rec.LevelRTTNs, mean)
			}
		}
		cb.Arms = append(cb.Arms, rec)
	}
	return cb
}

// benchTE times the fault-free te-failover point with the routing
// control loop off and on (best of reps), and micro-benchmarks one
// RouteTable failover cycle: uplink down (copy-on-write epoch swap),
// one detoured lookup, uplink back up.
func benchTE(flows, reps int) *TEBench {
	cfg := experiments.PointConfig{
		Protocol: experiments.DCTCP, Scenario: experiments.TEFailover,
		Load: 0.5, Seed: 1, NumFlows: flows,
	}
	best := func(c experiments.PointConfig) float64 {
		min := 0.0
		for i := 0; i < reps; i++ {
			start := time.Now()
			experiments.RunPoint(c)
			if w := float64(time.Since(start).Microseconds()) / 1000; i == 0 || w < min {
				min = w
			}
		}
		return min
	}
	off := best(cfg)
	looped := cfg
	looped.Route = route.Config{Reroute: true, TE: true}
	on := best(looped)

	const spines, racks = 4, 8
	ports := make([]int, spines)
	for s := range ports {
		ports[s] = s
	}
	rt := topology.NewRouteTable(0, ports, racks)
	const iters = 200_000
	start := time.Now()
	for i := 0; i < iters; i++ {
		s := i % spines
		rt.SetUplink(s, true)
		rt.Pick(i%racks, pkt.FlowID(i))
		rt.SetUplink(s, false)
	}
	failover := float64(time.Since(start).Nanoseconds()) / iters

	return &TEBench{Flows: flows, Reps: reps, OffMS: off, OnMS: on,
		OverheadPct: 100 * (on - off) / off, FailoverNsOp: failover}
}

// benchTrace times one fig-9a-style point with the flight recorder off
// and on, best-of-reps to damp scheduler noise.
func benchTrace(flows, reps int) *TraceBench {
	cfg := experiments.PointConfig{
		Protocol: experiments.DCTCP, Scenario: experiments.LeftRight,
		Load: 0.5, Seed: 1, NumFlows: flows,
	}
	best := func(c experiments.PointConfig) float64 {
		min := 0.0
		for i := 0; i < reps; i++ {
			start := time.Now()
			experiments.RunPoint(c)
			if w := float64(time.Since(start).Microseconds()) / 1000; i == 0 || w < min {
				min = w
			}
		}
		return min
	}
	off := best(cfg)
	traced := cfg
	traced.Trace = experiments.TraceConfig{Spans: true}
	on := best(traced)
	return &TraceBench{Flows: flows, Reps: reps, OffMS: off, OnMS: on,
		OverheadPct: 100 * (on - off) / off}
}

// benchEngine measures the simulator hot path in-process: the
// steady-state schedule+fire cycle and schedule+cancel churn, the same
// shapes as the internal/sim benchmarks.
func benchEngine() EngineBench {
	const iters = 2_000_000
	fn := func() {}

	e := sim.NewEngine()
	const depth = 512
	for i := 0; i < depth; i++ {
		e.Schedule(sim.Duration(i)*sim.Microsecond, fn)
	}
	start := time.Now()
	for i := 0; i < iters; i++ {
		e.Schedule(depth*sim.Microsecond, fn)
		e.Step()
	}
	fire := float64(time.Since(start).Nanoseconds()) / iters

	e2 := sim.NewEngine()
	start = time.Now()
	for i := 0; i < iters; i++ {
		e2.Schedule(sim.Millisecond, fn).Stop()
	}
	churn := float64(time.Since(start).Nanoseconds()) / iters

	return EngineBench{ScheduleFireNsOp: fire, TimerChurnNsOp: churn}
}

// benchMemory runs the same simulation point with the stored collector
// and the streaming sink, recording total allocation volume and the
// live heap delta once the run settles (result still referenced, so
// stored mode's per-flow records count against it).
func benchMemory(flows int) *MemBench {
	run := func(stream bool) (alloc, retained uint64) {
		runtime.GC()
		var before runtime.MemStats
		runtime.ReadMemStats(&before)
		res := experiments.RunPoint(experiments.PointConfig{
			Protocol: experiments.DCTCP, Scenario: experiments.IntraRack,
			Load: 0.6, Seed: 1, NumFlows: flows, Stream: stream,
		})
		var after runtime.MemStats
		runtime.ReadMemStats(&after)
		runtime.GC()
		var settled runtime.MemStats
		runtime.ReadMemStats(&settled)
		alloc = after.TotalAlloc - before.TotalAlloc
		if settled.HeapAlloc > before.HeapAlloc {
			retained = settled.HeapAlloc - before.HeapAlloc
		}
		runtime.KeepAlive(res)
		return alloc, retained
	}
	m := &MemBench{Flows: flows}
	m.StoredAllocBytes, m.StoredRetainedBytes = run(false)
	m.StreamAllocBytes, m.StreamRetainedBytes = run(true)
	return m
}
