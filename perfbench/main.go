// Command perfbench is the repository's benchmark. One run simulates one
// named workload through the public pase.Simulate entry point, each
// simulation in a fresh child process, and prints every metric by name
// with its unit and direction. The last line of standard output is a
// JSON object: {"correct", "attempted", "failed", "metrics"}.
//
// A timed run (--trace 0) reports the end-to-end metrics: flows_per_s,
// setup_s and peak_rss_mb. A traced run (--trace 1) reports the
// per-layer metrics instead: Obs counters, CPU-profile shares by
// package, runtime allocation and GC costs, micro-timings of each
// layer's public functions, and the checker and span-tracer overheads.
//
// Both kinds of run gate on correctness: every flow must complete, every
// run of one workload, seed and flow count must reproduce the same
// simulated outcome whatever instrumentation is on, and a run with the
// invariant checker attached must report no violations. A failed gate
// exits 1.
//
// Usage (from the repository root; run.sh builds the binary first):
//
//	bash perfbench/run.sh --workload pase-leftright --seed 1 --seconds 25 --trace 0
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"hash/fnv"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strings"
	"syscall"
	"time"
)

func main() {
	if os.Getenv(childEnv) == "1" {
		os.Exit(childMain(os.Args[1:], os.Stdout))
	}
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// options is one benchmark run's parsed command line.
type options struct {
	w       workload
	seed    uint64
	seconds time.Duration
	trace   bool
	out     string
	// The tests' tiny-size runs shrink these.
	flows          int
	setupRuns      int
	setupBudget    time.Duration
	overheadRounds int
	profileLoop    time.Duration
	microTime      time.Duration
}

func parseOptions(args []string, stderr io.Writer) (options, error) {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload name")
	seed := fs.Uint64("seed", defaultSeed, fmt.Sprintf("workload seed (default %d; held-out seed %d)", defaultSeed, heldOutSeed))
	seconds := fs.Float64("seconds", 25, "how long a timed run measures")
	trace := fs.Int("trace", 0, "0 = timed run (end-to-end metrics), 1 = traced run (per-layer metrics)")
	tiny := fs.Bool("tiny", false, "run a tiny size of the workload (the correctness gate of the tests)")
	out := fs.String("out", filepath.Join(".bench_build", "perfbench"), "directory for CPU profiles and spans")
	if err := fs.Parse(args); err != nil {
		return options{}, err
	}
	w, ok := lookupWorkload(*name)
	if !ok {
		var names []string
		for _, w := range workloads {
			names = append(names, w.Name)
		}
		return options{}, fmt.Errorf("unknown workload %q (want one of %s)", *name, strings.Join(names, ", "))
	}
	if *trace != 0 && *trace != 1 {
		return options{}, fmt.Errorf("--trace must be 0 or 1, got %d", *trace)
	}
	if *seconds <= 0 {
		return options{}, fmt.Errorf("--seconds must be positive, got %v", *seconds)
	}
	o := options{
		w: w, seed: *seed, seconds: time.Duration(*seconds * float64(time.Second)),
		trace: *trace == 1, out: *out,
		flows: w.Flows, setupRuns: 9, setupBudget: 2 * time.Second,
		overheadRounds: 3, profileLoop: 2 * time.Second, microTime: 200 * time.Millisecond,
	}
	if *tiny {
		o.flows, o.setupRuns, o.setupBudget = w.TinyFlows, 3, 0
		o.overheadRounds, o.profileLoop, o.microTime = 1, 0, 5*time.Millisecond
	}
	return o, nil
}

// run executes one benchmark run and returns the process exit code.
func run(args []string, stdout, stderr io.Writer) int {
	o, err := parseOptions(args, stderr)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 2
	}
	if err := os.MkdirAll(o.out, 0o755); err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	b := &bench{o: o, stdout: stdout, stderr: stderr, keys: map[string]string{}}
	if o.trace {
		b.rec = &spanRecorder{}
	}
	fmt.Fprintln(stdout, "perfbench host", hostFacts())
	fmt.Fprintf(stdout, "perfbench workload=%s seed=%d default_seed=%d held_out_seed=%d flows=%d trace=%v\n",
		o.w.Name, o.seed, defaultSeed, heldOutSeed, o.flows, o.trace)

	root := b.rec.begin("perfbench "+o.w.Name, -1)
	var values map[string]float64
	var defs []metricDef
	if o.trace {
		values, defs = b.traced(root), perLayer
	} else {
		values, defs = b.timed(root), endToEnd
	}
	b.rec.end(root)

	if b.events > 0 {
		fmt.Fprintf(stdout, "perfbench sim_digest=%s events=%d %s\n", b.digest(), b.events, b.fullKey())
	} else {
		b.fail("no run reported its fired-event count")
	}
	if b.rec != nil {
		path := filepath.Join(o.out, fmt.Sprintf("spans-%s-seed%d.json", o.w.Name, o.seed))
		if err := b.rec.write(path); err != nil {
			b.fail("write spans: %v", err)
		} else {
			fmt.Fprintln(stdout, "perfbench spans", path)
		}
	}

	result := benchResult{Attempted: b.attempted, Failed: b.failed, Metrics: map[string]metricValue{}}
	for _, d := range defs {
		v := values[d.Name]
		result.Metrics[d.Name] = metricValue{Value: v, Unit: d.Unit}
		fmt.Fprintf(stdout, "metric %-32s %14.6g %-8s better=%s\n", d.Name, v, d.Unit, d.Better)
	}
	for _, p := range b.problems {
		fmt.Fprintln(stdout, "perfbench gate:", p)
	}
	result.Correct = len(b.problems) == 0 && b.failed == 0
	fmt.Fprintf(stdout, "perfbench failed=%d attempted=%d failure_share=%.6g correct=%v\n",
		b.failed, b.attempted, float64(b.failed)/float64(max(b.attempted, 1)), result.Correct)
	line, err := json.Marshal(result)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	if !result.Correct {
		return 1
	}
	return 0
}

// benchResult is the last line of standard output.
type benchResult struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// bench holds one run's state: the correctness gate's tallies and the
// benchmark's own spans (nil in timed runs).
type bench struct {
	o              options
	stdout, stderr io.Writer
	rec            *spanRecorder

	attempted, failed int
	problems          []string
	// keys maps a seed and flow count to the simulated outcome every
	// child run with them must reproduce.
	keys   map[string]string
	events int64
}

func (b *bench) fail(format string, args ...any) {
	b.problems = append(b.problems, fmt.Sprintf(format, args...))
}

// digest folds the full-size outcome and its fired-event count into the
// sim_digest a speed-only change must leave unchanged.
func (b *bench) digest() string {
	h := fnv.New64a()
	fmt.Fprintf(h, "%s events=%d", b.fullKey(), b.events)
	return fmt.Sprintf("%016x", h.Sum64())
}

// fullKey is the simulated outcome of the run's seed at full size.
func (b *bench) fullKey() string {
	return b.keys[fmt.Sprintf("seed=%d flows=%d", b.o.seed, b.o.flows)]
}

// childRun is one finished child process.
type childRun struct {
	res    *childResult
	wall   time.Duration // host time of the Simulate call(s)
	maxRSS int64         // peak resident set of the process, bytes
}

// child runs one simulation of the workload in a fresh process and feeds
// its outcome to the correctness gate. It returns nil when the process
// failed; the gate then counts all its flows as failed.
func (b *bench) child(parent int, label string, seed uint64, flows int, extra ...string) *childRun {
	id := b.rec.begin("child "+label, parent)
	defer b.rec.end(id)
	exe, err := os.Executable()
	if err != nil {
		b.attempted += flows
		b.failed += flows
		b.fail("%s: %v", label, err)
		return nil
	}
	args := append([]string{"-workload", b.o.w.Name, "-seed", fmt.Sprint(seed), "-flows", fmt.Sprint(flows)}, extra...)
	cmd := exec.Command(exe, args...)
	cmd.Env = append(os.Environ(), childEnv+"=1")
	var out bytes.Buffer
	cmd.Stdout, cmd.Stderr = &out, b.stderr
	var res childResult
	err = cmd.Run()
	if err == nil {
		err = json.Unmarshal(out.Bytes(), &res)
	}
	b.attempted += flows
	if err != nil {
		b.failed += flows
		b.fail("%s: child process: %v", label, err)
		return nil
	}
	if res.Flows != flows {
		b.fail("%s: ran %d flows, asked for %d", label, res.Flows, flows)
	}
	// A flow that neither completes nor is aborted has failed.
	b.failed += max(flows-res.Completed-res.Aborted, 0)
	if res.Violations != 0 {
		b.fail("%s: %d invariant violations", label, res.Violations)
	}
	key, runKey := res.summaryKey(), fmt.Sprintf("seed=%d flows=%d", seed, flows)
	if want, ok := b.keys[runKey]; !ok {
		b.keys[runKey] = key
	} else if key != want {
		b.fail("%s: simulated outcome differs between runs of one seed:\n  %s\n  %s", label, want, key)
	}
	if res.Obs != nil && seed == b.o.seed && flows == b.o.flows {
		ev := res.Obs.Counters["sim/events_fired"]
		if b.events != 0 && ev != b.events {
			b.fail("%s: fired %d events, an earlier run of this seed fired %d", label, ev, b.events)
		}
		b.events = ev
	}
	for _, s := range res.Spans {
		s.Parent = id
		b.rec.add(s)
	}
	cr := &childRun{res: &res, wall: time.Duration(res.WallNS)}
	if ru, ok := cmd.ProcessState.SysUsage().(*syscall.Rusage); ok {
		cr.maxRSS = ru.Maxrss * 1024 // Linux reports KiB
	}
	return cr
}

// maxSetupRuns caps the one-flow runs that options.setupBudget allows
// beyond options.setupRuns.
const maxSetupRuns = 31

// timed is the --trace 0 run: one-flow set-up runs, then full-size runs
// for the measured seconds, then one checked run outside the timing.
func (b *bench) timed(root int) map[string]float64 {
	// One-flow runs on consecutive seeds, so the flow a seed draws does
	// not decide the median. A one-flow run in a fresh process is short
	// enough that page-fault and scheduling noise swing it by tens of
	// percent, so take as many as fit a small time budget.
	var setup []float64
	t0 := time.Now()
	for i := 0; i < b.o.setupRuns || (i < maxSetupRuns && time.Since(t0) < b.o.setupBudget); i++ {
		if r := b.child(root, "setup", b.o.seed+uint64(i), 1); r != nil {
			setup = append(setup, r.wall.Seconds())
		}
	}
	var fps, rss []float64
	start := time.Now()
	var last time.Duration
	for len(fps) == 0 || time.Since(start)+last <= b.o.seconds {
		t0 := time.Now()
		r := b.child(root, "timed", b.o.seed, b.o.flows)
		last = time.Since(t0)
		if r == nil {
			break
		}
		fps = append(fps, float64(r.res.Completed)/r.wall.Seconds())
		rss = append(rss, float64(r.maxRSS)/1e6)
	}
	// The checked run proves this seed's outcome breaks no invariant
	// and, with Obs on, supplies the fired-event count for sim_digest.
	b.child(root, "checked", b.o.seed, b.o.flows, "-check", "-obs")
	samples := map[string][]float64{"flows_per_s": fps, "setup_s": setup, "peak_rss_mb": rss}
	out := map[string]float64{}
	for _, d := range endToEnd {
		xs := samples[d.Name]
		out[d.Name] = median(xs)
		if len(xs) > 0 {
			fmt.Fprintf(b.stdout, "perfbench samples %s n=%d median=%.6g in run order: %.4g\n",
				d.Name, len(xs), out[d.Name], xs)
		}
	}
	return out
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}
