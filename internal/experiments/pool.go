package experiments

import (
	"runtime"
	"sync"
	"sync/atomic"

	"pase/internal/obs"
)

// Every simulation point is hermetic: RunPoint builds its own
// sim.Engine, RNG and topology and shares nothing with other points,
// so a figure's (variant × load × seed) grid can fan out across
// goroutines. The pool below is the one place that parallelism lives;
// results always come back in input order, so a figure assembled from
// pooled points is byte-identical to a serial run.

// forEachPoint runs fn(i, RunPoint(cfgs[i])) for every config across a
// bounded worker pool. fn is called concurrently from the workers but
// never twice for the same index. o.Parallelism <= 0 means GOMAXPROCS
// workers; 1 runs everything inline with no goroutines. o.Obs turns on
// observability for every point; o.Progress (if set) is called after
// each point completes, possibly from a worker goroutine.
func forEachPoint(cfgs []PointConfig, o Opts, fn func(i int, r PointResult)) {
	if o.Obs || o.Check || o.Faults != nil || o.Stream || o.Trace.Enabled() || o.Ctrl == "central" {
		for i := range cfgs {
			cfgs[i].Obs = cfgs[i].Obs || o.Obs
			cfgs[i].Check = cfgs[i].Check || o.Check
			if o.Ctrl == "central" && cfgs[i].Protocol == PASE {
				cfgs[i].PASE.Central = true
			}
			if cfgs[i].Faults == nil {
				cfgs[i].Faults = o.Faults
			}
			cfgs[i].Stream = cfgs[i].Stream || o.Stream
			if cfgs[i].SketchEps == 0 {
				cfgs[i].SketchEps = o.SketchEps
			}
			if !cfgs[i].Trace.Enabled() {
				// Points run concurrently: never share spill writers
				// through grid-level opts.
				t := o.Trace
				t.FlowLogWriter, t.SpanWriter = nil, nil
				cfgs[i].Trace = t
			}
		}
	}
	var done atomic.Int64
	total := len(cfgs)
	run := func(i int) {
		fn(i, RunPoint(cfgs[i]))
		if o.Progress != nil {
			o.Progress(int(done.Add(1)), total)
		}
	}
	workers := o.Parallelism
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > len(cfgs) {
		workers = len(cfgs)
	}
	if workers <= 1 {
		for i := range cfgs {
			run(i)
		}
		return
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(cfgs) {
					return
				}
				run(i)
			}
		}()
	}
	wg.Wait()
}

// RunPoints executes every config across the pool and returns the
// results in input order.
func RunPoints(cfgs []PointConfig, parallelism int) []PointResult {
	return RunPointsOpts(cfgs, Opts{Parallelism: parallelism})
}

// RunPointsOpts is RunPoints with full Opts control — parallelism,
// observability and a progress callback.
func RunPointsOpts(cfgs []PointConfig, o Opts) []PointResult {
	out := make([]PointResult, len(cfgs))
	forEachPoint(cfgs, o, func(i int, r PointResult) { out[i] = r })
	return out
}

// pointExtras collects the cross-point observability of one pool run:
// per-point snapshots (merged in input order afterwards, so the result
// is independent of scheduling) and the retransmission totals every
// figure reports. Workers write disjoint indices; no locking needed.
type pointExtras struct {
	snaps      []*obs.Snapshot
	retx       []int64
	timeouts   []int64
	violations []int64
}

func newPointExtras(n int) *pointExtras {
	return &pointExtras{
		snaps:      make([]*obs.Snapshot, n),
		retx:       make([]int64, n),
		timeouts:   make([]int64, n),
		violations: make([]int64, n),
	}
}

// observe records point i's contribution. Safe to call concurrently
// for distinct i.
func (e *pointExtras) observe(i int, r PointResult) {
	e.snaps[i] = r.Obs
	e.retx[i] = r.Summary.Retx
	e.timeouts[i] = r.Summary.Timeouts
	e.violations[i] = r.Violations
}

// fill merges the collected extras into the figure result.
func (e *pointExtras) fill(res *Result) {
	res.Obs = obs.MergeAll(e.snaps)
	res.Points = len(e.snaps)
	for i := range e.snaps {
		res.Retx += e.retx[i]
		res.Timeouts += e.timeouts[i]
		res.Violations += e.violations[i]
	}
}

// mapPoints is RunPoints for callers that only keep one scalar per
// point: the metric is applied inside the worker, so the full
// per-point Records/CDF payloads are released as soon as each point
// finishes instead of being retained for the whole grid. The returned
// extras carry each point's snapshot and retransmission totals.
func mapPoints(cfgs []PointConfig, o Opts, metric func(PointResult) float64) ([]float64, *pointExtras) {
	out := make([]float64, len(cfgs))
	ex := newPointExtras(len(cfgs))
	forEachPoint(cfgs, o, func(i int, r PointResult) {
		out[i] = metric(r)
		ex.observe(i, r)
	})
	return out, ex
}
