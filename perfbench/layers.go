package main

import (
	"fmt"
	"math"
	"path/filepath"
	"strings"

	"pase"
	"pase/internal/obs"
)

// traced is the --trace 1 run. It runs the workload at full size
// untraced, with the invariant checker and with the span tracer, in
// rounds; then looped under a CPU profile, and once with Obs on; and it
// profiles a looped one-flow run for the set-up split. Then it times
// each layer's public functions on inputs shaped like what the Obs run
// observed.
func (b *bench) traced(root int) map[string]float64 {
	o := b.o
	profPath := filepath.Join(o.out, fmt.Sprintf("cpu-%s-seed%d.pprof", o.w.Name, o.seed))
	setupProfPath := filepath.Join(o.out, fmt.Sprintf("setup-cpu-%s-seed%d.pprof", o.w.Name, o.seed))

	// Overheads are medians over rounds of untraced, checked and
	// span-traced runs back to back, so host drift between the runs of
	// one round mostly cancels.
	var base *childRun
	var checkPct, tracePct []float64
	for i := 0; i < o.overheadRounds; i++ {
		off := b.child(root, "untraced", o.seed, o.flows)
		checked := b.child(root, "checked", o.seed, o.flows, "-check")
		spanned := b.child(root, "spantrace", o.seed, o.flows, "-spantrace")
		if off == nil || checked == nil || spanned == nil {
			return map[string]float64{} // the gate has already failed the run
		}
		base = off
		checkPct = append(checkPct, overheadPct(checked, off))
		tracePct = append(tracePct, overheadPct(spanned, off))
	}
	loop := o.profileLoop.String()
	profiled := b.child(root, "profiled", o.seed, o.flows, "-cpuprofile", profPath, "-loop", loop)
	withObs := b.child(root, "obs", o.seed, o.flows, "-obs")
	setup := b.child(root, "setup-profiled", o.seed, 1, "-cpuprofile", setupProfPath, "-loop", loop)
	v := map[string]float64{}
	if profiled == nil || withObs == nil || setup == nil {
		return v // the gate has already failed the run
	}

	flows := float64(o.flows)
	snap := withObs.res.Obs
	c := snap.Counters
	events := float64(c["sim/events_fired"])
	v["sim.events_per_flow"] = events / flows
	v["sim.heap_depth_max"] = float64(snap.Gauges["sim/heap_depth"])
	v["sim.timers_stopped_ratio"] = ratio(c["sim/timers_stopped"], c["sim/events_scheduled"])

	var enq, drop, mark int64
	for name, n := range c {
		if !strings.HasPrefix(name, "net/") {
			continue
		}
		switch {
		case strings.HasSuffix(name, "/enq"):
			enq += n
		case strings.HasSuffix(name, "/drop"):
			drop += n
		case strings.HasSuffix(name, "/mark"):
			mark += n
		}
	}
	v["netem.enq_per_flow"] = float64(enq) / flows
	v["netem.drop_ratio"] = ratio(drop, enq+drop)
	v["netem.mark_ratio"] = ratio(mark, enq)

	r := base.res
	v["runtime.allocs_per_event"] = float64(r.Mallocs) / math.Max(events, 1)
	v["runtime.alloc_bytes_per_event"] = float64(r.AllocBytes) / math.Max(events, 1)
	v["runtime.gc_cpu_share"] = r.GCCPUS / math.Max(r.BusyCPUS, 1e-9)
	v["runtime.gc_cycles"] = float64(r.GCCycles)

	v["transport.retx_per_flow"] = float64(c["transport/retx"]) / flows
	v["transport.timeouts_per_flow"] = float64(c["transport/timeouts"]) / flows
	v["transport.credit_waste_ratio"] = ratio(c["credit/wasted"], c["credit/sent"])

	v["arbitration.msgs_per_flow"] = float64(c["arb/messages"]) / flows
	v["arbitration.refreshes_per_flow"] = float64(c["arb/refreshes"]) / flows
	wait := snap.Histograms["pase/wait_ctrl_ns"]
	v["arbitration.ctrl_wait_p50_us"] = histQuantile(wait, 0.50) / 1e3
	v["arbitration.ctrl_wait_p99_us"] = histQuantile(wait, 0.99) / 1e3

	if p, err := readCPUProfile(profPath); err != nil {
		b.fail("cpu profile: %v", err)
	} else {
		shares := selfShares(p)
		for _, layer := range []string{"sim", "netem", "transport", "arbitration", "workload", "metrics"} {
			v[layer+".cpu_share"] = shares[layer]
		}
	}
	if p, err := readCPUProfile(setupProfPath); err != nil {
		b.fail("set-up cpu profile: %v", err)
	} else {
		v["topology.setup_cpu_share"] = inclusiveShare(p, "topology")
	}

	v["trace.overhead_pct"] = median(tracePct)
	v["check.overhead_pct"] = median(checkPct)

	id := b.rec.begin("micro sim", root)
	v["sim.schedule_fire_ns"] = scheduleFireNS(int(snap.Gauges["sim/heap_depth"]), o.microTime)
	b.rec.end(id)
	id = b.rec.begin("micro netem", root)
	v["netem.queue_op_ns"] = queueOpNS(o.w.Protocol, snap, ratio(drop, enq+drop), o.microTime)
	b.rec.end(id)
	if c["arb/messages"] > 0 {
		id = b.rec.begin("micro arbitration", root)
		v["arbitration.update_ns"] = arbUpdateNS(int(snap.Gauges["arb/inflight_allocs"]), o.microTime)
		b.rec.end(id)
	} else {
		v["arbitration.update_ns"] = 0 // the workload runs no arbitrator
	}
	id = b.rec.begin("micro metrics", root)
	v["metrics.collector_add_ns"] = collectorAddNS(o.w.Stream, o.flows, r.AFCTNS, o.microTime)
	b.rec.end(id)
	return v
}

func ratio(num, den int64) float64 {
	if den == 0 {
		return 0
	}
	return float64(num) / float64(den)
}

// overheadPct is how much longer the instrumented run's Simulate call
// took than the untraced one's, in percent.
func overheadPct(on, off *childRun) float64 {
	return (on.wall.Seconds()/off.wall.Seconds() - 1) * 100
}

// histQuantile estimates quantile q of an Obs log2 histogram by linear
// interpolation inside the bucket it falls in, clamped to the recorded
// extremes. Buckets[0] counts values <= 0, Buckets[i] values in
// [2^(i-1), 2^i).
func histQuantile(h obs.HistogramSnapshot, q float64) float64 {
	if h.Count == 0 {
		return 0
	}
	target := q * float64(h.Count)
	var cum float64
	for i, n := range h.Buckets {
		if n == 0 {
			continue
		}
		if cum+float64(n) >= target {
			if i == 0 {
				return math.Max(float64(h.Min), 0)
			}
			lo, hi := math.Ldexp(1, i-1), math.Ldexp(1, i)
			x := lo + (hi-lo)*(target-cum)/float64(n)
			return math.Min(math.Max(x, float64(h.Min)), float64(h.Max))
		}
		cum += float64(n)
	}
	return float64(h.Max)
}

// meanOccupancy is the mean queue length the Obs run's occupancy
// histograms saw at enqueue time.
func meanOccupancy(s *pase.Snapshot) int {
	var sum, count int64
	for name, h := range s.Histograms {
		if strings.HasPrefix(name, "queue/") && strings.HasSuffix(name, "/occ") {
			sum += h.Sum
			count += h.Count
		}
	}
	if count == 0 {
		return 0
	}
	return int(sum / count)
}

// layerPackages maps package paths to the benchmark's layer names. Every
// runtime sample, allocation and GC included, belongs to "runtime".
var layerPackages = []struct{ pkg, layer string }{
	{"pase/internal/sim", "sim"},
	{"pase/internal/netem", "netem"},
	{"pase/internal/pkt", "netem"},
	{"pase/internal/transport", "transport"},
	{"pase/internal/core/endhost", "transport"},
	{"pase/internal/core/arbitration", "arbitration"},
	{"pase/internal/topology", "topology"},
	{"pase/internal/route", "topology"},
	{"pase/internal/workload", "workload"},
	{"pase/internal/metrics", "metrics"},
	{"runtime", "runtime"},
	{"internal/runtime", "runtime"},
}

// layerOf names the layer of a function from its symbol, e.g.
// "pase/internal/sim.(*Engine).Step" is in "sim". Other packages are "".
func layerOf(fn string) string {
	if i := strings.IndexByte(fn, '['); i >= 0 {
		fn = fn[:i] // type arguments may name other packages
	}
	slash := strings.LastIndex(fn, "/")
	pkg := fn
	if dot := strings.Index(fn[slash+1:], "."); dot >= 0 {
		pkg = fn[:slash+1+dot]
	}
	for _, lp := range layerPackages {
		if pkg == lp.pkg || strings.HasPrefix(pkg, lp.pkg+"/") {
			return lp.layer
		}
	}
	return ""
}

// selfShares gives each layer's share of the profile's CPU time by the
// layer of each sample's leaf frame.
func selfShares(p *cpuProfile) map[string]float64 {
	byLayer := map[string]int64{}
	var total int64
	for i, st := range p.stacks {
		total += p.weights[i]
		if len(st) > 0 {
			if l := layerOf(st[0]); l != "" {
				byLayer[l] += p.weights[i]
			}
		}
	}
	out := map[string]float64{}
	for l, w := range byLayer {
		out[l] = ratio(w, total)
	}
	return out
}

// inclusiveShare is the share of the profile's CPU time whose stack has
// any frame in the layer: time spent in it or in what it calls.
func inclusiveShare(p *cpuProfile, layer string) float64 {
	var in, total int64
	for i, st := range p.stacks {
		total += p.weights[i]
		for _, fn := range st {
			if layerOf(fn) == layer {
				in += p.weights[i]
				break
			}
		}
	}
	return ratio(in, total)
}
