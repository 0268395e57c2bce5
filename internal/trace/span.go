package trace

import (
	"sort"

	"pase/internal/pkt"
	"pase/internal/sim"
)

// Span-based flight recorder (trace v2).
//
// The recorder captures where a flow's time went — waiting for the
// control plane, transmitting on an assigned priority queue — plus the
// control-plane exchanges themselves, as spans on the simulated clock.
// It is built to the same contract as the rest of the run machinery:
//
//   - Deterministic. A run traced at any GOMAXPROCS or parallelism
//     produces byte-identical output, and Take sorts it into a
//     canonical order — flow traces by (End, Flow), control spans by
//     (Start, Flow, side, level) — that does not depend on how events
//     sharing one instant happened to execute.
//   - Bounded. Live flows cost O(in-flight): a flow's spans accumulate
//     only while it is open, and at completion the trace is either
//     committed to a fixed-capacity ring (evicting the oldest) or
//     recycled. Per-flow span/mark counts are capped too.
//   - Production-shaped. Seed-driven sampling keeps 1 in N flows; a
//     flow that misbehaved (retransmissions, timeouts, control-plane
//     fallback, abort) is always kept regardless of the sample draw,
//     so the interesting traces survive aggressive sampling.
//
// In spill mode (SpillTo) committed traces stream straight into a
// PerfettoStream in completion order instead of being retained — the
// bounded-memory path for serial streaming runs. The stream flushes
// completion-time tie groups sorted by flow ID, so its byte output
// matches the buffered path's canonical (End, Flow) order exactly
// (as long as the buffered run stays under FlowCap).

// SpanKind classifies one phase of a flow's lifetime.
type SpanKind uint8

const (
	// SpanWait: the flow is held, waiting for a control-plane
	// allocation (PASE's arbitration request is in flight).
	SpanWait SpanKind = iota
	// SpanXfer: the flow is transmitting on priority queue Prio — one
	// span per contiguous epoch at that priority.
	SpanXfer
)

// MarkKind classifies an instantaneous flow annotation.
type MarkKind uint8

const (
	// MarkGrant: the first arbitration response was adopted.
	MarkGrant MarkKind = iota
	// MarkRetx: a data segment was retransmitted (Arg = sequence).
	MarkRetx
	// MarkTimeout: the retransmission timer fired.
	MarkTimeout
	// MarkFallback: the endpoint gave up on the control plane and fell
	// back to bottom-queue DCTCP mode.
	MarkFallback
	// MarkResync: the endpoint re-adopted a fresh allocation after a
	// fallback (control-plane recovery).
	MarkResync
	// MarkAbort: the flow was aborted before completing.
	MarkAbort
)

// String names the mark for export.
func (k MarkKind) String() string {
	switch k {
	case MarkGrant:
		return "grant"
	case MarkRetx:
		return "retx"
	case MarkTimeout:
		return "timeout"
	case MarkFallback:
		return "fallback"
	case MarkResync:
		return "resync"
	case MarkAbort:
		return "abort"
	}
	return "mark?"
}

// flags reports whether the mark forces the flow to be kept regardless
// of the sampling draw. Grants are the happy path; everything else is
// a misbehavior worth keeping.
func (k MarkKind) flags() bool { return k != MarkGrant }

// FlowSpan is one phase of a flow: [Start, End) spent either waiting
// for control or transmitting at priority Prio.
type FlowSpan struct {
	Start sim.Time
	End   sim.Time
	Kind  SpanKind
	Prio  int
}

// Mark is one instantaneous annotation on a flow's timeline.
type Mark struct {
	At   sim.Time
	Kind MarkKind
	Arg  int64
}

// FlowTrace is the recorded lifecycle of one flow.
type FlowTrace struct {
	Flow    pkt.FlowID
	Src     pkt.NodeID
	Dst     pkt.NodeID
	Size    int64
	Start   sim.Time
	End     sim.Time
	Aborted bool
	// Flagged marks a misbehaving flow (retx/timeout/fallback/resync/
	// abort) — kept even when the sampling draw would drop it.
	Flagged bool
	Spans   []FlowSpan
	Marks   []Mark
	// Truncated counts spans/marks dropped beyond the per-flow cap.
	Truncated int64
}

// WaitCtrl sums the time the flow spent waiting for the control plane.
func (ft *FlowTrace) WaitCtrl() sim.Duration {
	var d sim.Duration
	for _, s := range ft.Spans {
		if s.Kind == SpanWait {
			d += s.End.Sub(s.Start)
		}
	}
	return d
}

// Xfer sums the time the flow spent in transmission epochs.
func (ft *FlowTrace) Xfer() sim.Duration {
	var d sim.Duration
	for _, s := range ft.Spans {
		if s.Kind == SpanXfer {
			d += s.End.Sub(s.Start)
		}
	}
	return d
}

// RouteKind classifies one routing-control-plane event.
type RouteKind uint8

const (
	// RouteLinkDown: a link failure reached a leaf's route table and
	// the affected buckets detoured (Arg = buckets rerouted).
	RouteLinkDown RouteKind = iota
	// RouteLinkUp: the failed link recovered and its buckets returned
	// (Arg = buckets restored).
	RouteLinkUp
	// RouteTEMove: a TE epoch shifted one bucket off a hot spine
	// (Spine = source, Arg = target spine).
	RouteTEMove
)

// String names the route event kind for export.
func (k RouteKind) String() string {
	switch k {
	case RouteLinkDown:
		return "link_down"
	case RouteLinkUp:
		return "link_up"
	case RouteTEMove:
		return "te_move"
	}
	return "route?"
}

// RouteEvent is one routing-control update applied to a leaf's route
// table — a reroute around a failure or a TE bucket move.
type RouteEvent struct {
	At   sim.Time
	Rack int // the leaf whose table changed
	Kind RouteKind
	// Spine is the subject spine (the failed/recovered one, or the
	// source of a TE move).
	Spine int
	// Arg carries kind-specific detail: buckets moved for link events,
	// the target spine for TE moves.
	Arg int64
}

// CtrlOutcome classifies one arbitration half-exchange.
type CtrlOutcome uint8

const (
	// CtrlOK: the request climbed the hierarchy and a response was
	// delivered after the modelled latency.
	CtrlOK CtrlOutcome = iota
	// CtrlReqDropped: the fault injector dropped the request leg.
	CtrlReqDropped
	// CtrlRespDropped: the fault injector dropped the response leg.
	CtrlRespDropped
	// CtrlDead: the walk hit a crashed arbitrator and died there.
	CtrlDead
)

// String names the outcome for export.
func (o CtrlOutcome) String() string {
	switch o {
	case CtrlOK:
		return "ok"
	case CtrlReqDropped:
		return "req_dropped"
	case CtrlRespDropped:
		return "resp_dropped"
	case CtrlDead:
		return "dead_arb"
	}
	return "outcome?"
}

// CtrlSpan is one control-plane exchange through the arbitrator
// hierarchy: the request leg up, per-level aggregation, and the
// response leg back down, modelled as Latency after Start.
type CtrlSpan struct {
	Flow pkt.FlowID
	// SrcSide distinguishes the source-half request from the
	// destination-half request of the same refresh.
	SrcSide bool
	// Level is how many hierarchy levels past the host-local
	// arbitrator the request climbed (0 = resolved locally).
	Level int
	Start sim.Time
	// Latency is the modelled round-trip (0 when the exchange died).
	Latency sim.Duration
	Outcome CtrlOutcome
}

// Meta describes the run a trace came from; it rides along in the
// Perfetto header so analysis tools can reconstruct rates.
type Meta struct {
	Proto    string
	Scenario string
	// NICBps is the host NIC line rate in bits/s — the denominator of
	// the critical-path serialization term.
	NICBps  int64
	SampleN int
	Seed    uint64
}

// TraceStats summarizes what the recorder kept and shed.
type TraceStats struct {
	FlowsStarted    int64
	FlowsFinal      int64 // traces in the output
	FlowsSampledOut int64 // completed clean but lost the sample draw
	FlowsEvicted    int64 // committed but pushed out by FlowCap
	FlowsUnfinished int64 // still open when the run ended
	SpansTruncated  int64 // spans/marks over the per-flow cap (kept flows)
	CtrlTotal       int64
	CtrlEvicted     int64
}

// Recorder defaults. FlowCap bounds retained flow traces run-wide,
// MaxPerFlow bounds one flow's spans and marks (each), CtrlCap bounds
// retained control spans.
const (
	DefaultFlowCap    = 1 << 17
	DefaultMaxPerFlow = 256
	DefaultCtrlCap    = 1 << 18
	// DefaultRouteCap bounds retained routing-control events; route
	// updates are rare (failures and one TE move per epoch per leaf),
	// so the ring almost never wraps.
	DefaultRouteCap = 1 << 16
)

// RecorderConfig parameterizes a Recorder. Zero values take the
// defaults above; SampleN <= 1 keeps every flow.
type RecorderConfig struct {
	// SampleN keeps 1 in N flows (seed-driven, per-flow deterministic).
	// Flagged flows are always kept.
	SampleN int
	// Seed drives the sampling hash; use the run seed so re-runs trace
	// the same flows.
	Seed       uint64
	FlowCap    int
	MaxPerFlow int
	CtrlCap    int
	RouteCap   int
}

// Recorder owns a run's flight recording: the live and committed flow
// traces, the control and routing rings, and the sort that produces
// the canonical RunTrace. All recording methods are nil-safe no-ops,
// so call sites can stay unconditional when tracing is off.
type Recorder struct {
	cfg   RecorderConfig
	eng   *sim.Engine
	meta  Meta
	spill *PerfettoStream

	live map[pkt.FlowID]*FlowTrace
	free []*FlowTrace // recycled traces of sampled-out flows

	// Committed ring: done grows to FlowCap, then donePos wraps.
	done    []*FlowTrace
	donePos int64

	// Spill-mode tie group: commits sharing one End timestamp, flushed
	// sorted by flow ID when the clock moves past them.
	spillGrp []*FlowTrace

	// Ctrl ring, same shape as done.
	ctrl    []CtrlSpan
	ctrlPos int64

	// Route ring, same shape as ctrl.
	route    []RouteEvent
	routePos int64

	started    int64
	sampledOut int64
}

// NewRecorder builds a recorder on the run's engine clock, applying
// config defaults.
func NewRecorder(eng *sim.Engine, cfg RecorderConfig) *Recorder {
	if cfg.FlowCap <= 0 {
		cfg.FlowCap = DefaultFlowCap
	}
	if cfg.MaxPerFlow <= 0 {
		cfg.MaxPerFlow = DefaultMaxPerFlow
	}
	if cfg.CtrlCap <= 0 {
		cfg.CtrlCap = DefaultCtrlCap
	}
	if cfg.RouteCap <= 0 {
		cfg.RouteCap = DefaultRouteCap
	}
	return &Recorder{
		cfg:  cfg,
		eng:  eng,
		live: make(map[pkt.FlowID]*FlowTrace),
		done: make([]*FlowTrace, 0, 16),
		ctrl: make([]CtrlSpan, 0, 16),
	}
}

// SetMeta records the run description; in spill mode it also opens the
// output stream (the Perfetto header carries the meta, so it must be
// known before the first flow commits).
func (r *Recorder) SetMeta(m Meta) {
	m.SampleN = r.cfg.SampleN
	m.Seed = r.cfg.Seed
	r.meta = m
	if r.spill != nil {
		r.spill.Begin(m)
	}
}

// SpillTo switches the recorder into spill mode: committed flow traces
// stream into ps at completion instead of being retained, keeping
// memory O(in-flight). Call before SetMeta.
func (r *Recorder) SpillTo(ps *PerfettoStream) { r.spill = ps }

// sampleHash is a SplitMix64 finalizer over (seed, flow): a cheap,
// well-mixed, execution-order-independent per-flow coin.
func sampleHash(seed uint64, f pkt.FlowID) uint64 {
	z := seed + 0x9e3779b97f4a7c15*(uint64(f)+1)
	z ^= z >> 30
	z *= 0xbf58476d1ce4e5b9
	z ^= z >> 27
	z *= 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// Sampled reports whether the sampling draw keeps flow f.
func (r *Recorder) Sampled(f pkt.FlowID) bool {
	if r.cfg.SampleN <= 1 {
		return true
	}
	return sampleHash(r.cfg.Seed, f)%uint64(r.cfg.SampleN) == 0
}

// FlowArrive opens a flow's trace. held reports whether the flow is
// waiting for a control-plane allocation (PASE's hold-at-source);
// otherwise it is transmitting immediately at prio.
func (r *Recorder) FlowArrive(f pkt.FlowID, src, dst pkt.NodeID, size int64, prio int, held bool) {
	if r == nil {
		return
	}
	r.started++
	now := r.eng.Now()
	ft := r.alloc()
	ft.Flow, ft.Src, ft.Dst, ft.Size = f, src, dst, size
	ft.Start = now
	kind := SpanXfer
	if held {
		kind = SpanWait
	}
	ft.Spans = append(ft.Spans, FlowSpan{Start: now, End: now, Kind: kind, Prio: prio})
	r.live[f] = ft
}

// Epoch records a transmission-epoch transition: the current phase
// ends now and a new transmit span opens at prio. A transition into
// the phase already running is a no-op.
func (r *Recorder) Epoch(f pkt.FlowID, prio int) {
	if r == nil {
		return
	}
	ft := r.live[f]
	if ft == nil {
		return
	}
	if n := len(ft.Spans); n > 0 {
		cur := &ft.Spans[n-1]
		if cur.Kind == SpanXfer && cur.Prio == prio {
			return
		}
		cur.End = r.eng.Now()
	}
	if len(ft.Spans) >= r.cfg.MaxPerFlow {
		ft.Truncated++
		return
	}
	now := r.eng.Now()
	ft.Spans = append(ft.Spans, FlowSpan{Start: now, End: now, Kind: SpanXfer, Prio: prio})
}

// Mark annotates the flow's timeline at the current instant. Marks
// other than grants flag the flow as always-kept.
func (r *Recorder) Mark(f pkt.FlowID, kind MarkKind, arg int64) {
	if r == nil {
		return
	}
	ft := r.live[f]
	if ft == nil {
		return
	}
	if kind.flags() {
		ft.Flagged = true
	}
	if len(ft.Marks) >= r.cfg.MaxPerFlow {
		ft.Truncated++
		return
	}
	ft.Marks = append(ft.Marks, Mark{At: r.eng.Now(), Kind: kind, Arg: arg})
}

// FlowEnd closes a flow's trace and commits or discards it: flagged
// flows and flows passing the sample draw are kept, the rest recycle.
func (r *Recorder) FlowEnd(f pkt.FlowID, aborted bool) {
	if r == nil {
		return
	}
	ft := r.live[f]
	if ft == nil {
		return
	}
	delete(r.live, f)
	now := r.eng.Now()
	ft.End = now
	if n := len(ft.Spans); n > 0 {
		ft.Spans[n-1].End = now
	}
	if aborted {
		ft.Aborted = true
		ft.Flagged = true
		if len(ft.Marks) < r.cfg.MaxPerFlow {
			ft.Marks = append(ft.Marks, Mark{At: now, Kind: MarkAbort})
		} else {
			ft.Truncated++
		}
	}
	if !ft.Flagged && !r.Sampled(f) {
		r.sampledOut++
		r.recycle(ft)
		return
	}
	if ps := r.spill; ps != nil {
		// Commits arrive in clock order; flush the previous End-tie
		// group (sorted by flow ID) once the clock moves past it.
		if n := len(r.spillGrp); n > 0 && r.spillGrp[0].End != ft.End {
			r.flushSpill(ps)
		}
		r.spillGrp = append(r.spillGrp, ft)
		return
	}
	cap := r.cfg.FlowCap
	if len(r.done) < cap {
		r.done = append(r.done, ft)
	} else {
		r.recycle(r.done[r.donePos%int64(cap)])
		r.done[r.donePos%int64(cap)] = ft
	}
	r.donePos++
}

func (r *Recorder) flushSpill(ps *PerfettoStream) {
	grp := r.spillGrp
	sort.Slice(grp, func(i, j int) bool { return grp[i].Flow < grp[j].Flow })
	ps.Flows(grp)
	for _, ft := range grp {
		r.recycle(ft)
	}
	r.spillGrp = r.spillGrp[:0]
}

// Ctrl records one control-plane exchange.
func (r *Recorder) Ctrl(cs CtrlSpan) {
	if r == nil {
		return
	}
	cap := r.cfg.CtrlCap
	if len(r.ctrl) < cap {
		r.ctrl = append(r.ctrl, cs)
	} else {
		r.ctrl[r.ctrlPos%int64(cap)] = cs
	}
	r.ctrlPos++
}

// Route records one routing-control update. A run that never
// reroutes records nothing and its trace bytes stay identical to a
// build without routing control.
func (r *Recorder) Route(ev RouteEvent) {
	if r == nil {
		return
	}
	cap := r.cfg.RouteCap
	if len(r.route) < cap {
		r.route = append(r.route, ev)
	} else {
		r.route[r.routePos%int64(cap)] = ev
	}
	r.routePos++
}

// alloc reuses a recycled trace or makes one.
func (r *Recorder) alloc() *FlowTrace {
	if n := len(r.free); n > 0 {
		ft := r.free[n-1]
		r.free = r.free[:n-1]
		return ft
	}
	return &FlowTrace{}
}

// maxFreeTraces bounds the recycling list.
const maxFreeTraces = 1024

func (r *Recorder) recycle(ft *FlowTrace) {
	if len(r.free) >= maxFreeTraces {
		return
	}
	*ft = FlowTrace{Spans: ft.Spans[:0], Marks: ft.Marks[:0]}
	r.free = append(r.free, ft)
}

// ring returns the retained ring contents oldest-first.
func ringTraces(buf []*FlowTrace, pos int64, cap int) []*FlowTrace {
	if pos <= int64(len(buf)) {
		return buf
	}
	at := int(pos % int64(cap))
	out := make([]*FlowTrace, 0, len(buf))
	out = append(out, buf[at:]...)
	return append(out, buf[:at]...)
}

func ringCtrl(buf []CtrlSpan, pos int64, cap int) []CtrlSpan {
	if pos <= int64(len(buf)) {
		return buf
	}
	at := int(pos % int64(cap))
	out := make([]CtrlSpan, 0, len(buf))
	out = append(out, buf[at:]...)
	return append(out, buf[:at]...)
}

func ringRoute(buf []RouteEvent, pos int64, cap int) []RouteEvent {
	if pos <= int64(len(buf)) {
		return buf
	}
	at := int(pos % int64(cap))
	out := make([]RouteEvent, 0, len(buf))
	out = append(out, buf[at:]...)
	return append(out, buf[:at]...)
}

// RunTrace is a run's merged flight recording in canonical order:
// Flows by (End, Flow), Ctrl by (Start, Flow, side, level), Queue by
// (At, Idx). The order — and therefore the exported bytes — does not
// depend on how same-instant events executed or on parallelism (up to
// the capacity caps; see Stats for what was shed).
type RunTrace struct {
	Meta  Meta
	Flows []*FlowTrace
	Ctrl  []CtrlSpan
	Queue []QueueSample
	// Route holds the routing-control events in canonical
	// (At, Rack, Kind, Spine, Arg) order; empty unless the run rerouted.
	Route []RouteEvent
	Stats TraceStats
}

// Take sorts the recorded buffers into the canonical RunTrace. Call
// once, after the run. In spill mode the flows are already gone to the
// stream; Take returns the control spans, stats and meta, and the
// caller finishes with FinishSpill.
func (r *Recorder) Take() *RunTrace {
	rt := &RunTrace{Meta: r.meta}
	if r.spill != nil && len(r.spillGrp) > 0 {
		r.flushSpill(r.spill)
	}
	flows := append([]*FlowTrace(nil), ringTraces(r.done, r.donePos, r.cfg.FlowCap)...)
	rt.Ctrl = append(rt.Ctrl, ringCtrl(r.ctrl, r.ctrlPos, r.cfg.CtrlCap)...)
	rt.Route = append(rt.Route, ringRoute(r.route, r.routePos, r.cfg.RouteCap)...)
	rt.Stats.FlowsStarted = r.started
	rt.Stats.FlowsSampledOut = r.sampledOut
	rt.Stats.FlowsUnfinished = int64(len(r.live))
	rt.Stats.CtrlTotal = r.ctrlPos
	sort.Slice(flows, func(i, j int) bool {
		if flows[i].End != flows[j].End {
			return flows[i].End < flows[j].End
		}
		return flows[i].Flow < flows[j].Flow
	})
	rt.Flows = flows
	sort.Slice(rt.Ctrl, func(i, j int) bool {
		a, b := rt.Ctrl[i], rt.Ctrl[j]
		if a.Start != b.Start {
			return a.Start < b.Start
		}
		if a.Flow != b.Flow {
			return a.Flow < b.Flow
		}
		if a.SrcSide != b.SrcSide {
			return a.SrcSide
		}
		return a.Level < b.Level
	})
	sort.Slice(rt.Route, func(i, j int) bool {
		a, b := rt.Route[i], rt.Route[j]
		if a.At != b.At {
			return a.At < b.At
		}
		if a.Rack != b.Rack {
			return a.Rack < b.Rack
		}
		if a.Kind != b.Kind {
			return a.Kind < b.Kind
		}
		if a.Spine != b.Spine {
			return a.Spine < b.Spine
		}
		return a.Arg < b.Arg
	})
	st := &rt.Stats
	st.FlowsFinal = int64(len(rt.Flows))
	st.FlowsEvicted = st.FlowsStarted - st.FlowsSampledOut - st.FlowsUnfinished - st.FlowsFinal
	for _, ft := range rt.Flows {
		st.SpansTruncated += ft.Truncated
	}
	st.CtrlEvicted = st.CtrlTotal - int64(len(rt.Ctrl))
	return rt
}

// FinishSpill completes a spill-mode stream: the control spans and
// queue samples land after the flow sections, and the JSON closes.
func (r *Recorder) FinishSpill(rt *RunTrace) error {
	if r.spill == nil {
		panic("trace: FinishSpill without SpillTo")
	}
	return r.spill.Finish(rt.Ctrl, rt.Queue, rt.Route)
}

// Digest folds the trace's canonical content into one FNV-1a hash —
// the cheap equality pin for determinism tests.
func (rt *RunTrace) Digest() uint64 {
	h := uint64(1469598103934665603)
	mix := func(v int64) {
		u := uint64(v)
		for i := 0; i < 8; i++ {
			h ^= u & 0xff
			h *= 1099511628211
			u >>= 8
		}
	}
	for _, ft := range rt.Flows {
		mix(int64(ft.Flow))
		mix(int64(ft.Start))
		mix(int64(ft.End))
		mix(ft.Size)
		b := int64(0)
		if ft.Flagged {
			b = 1
		}
		if ft.Aborted {
			b |= 2
		}
		mix(b)
		for _, sp := range ft.Spans {
			mix(int64(sp.Start))
			mix(int64(sp.End))
			mix(int64(sp.Kind))
			mix(int64(sp.Prio))
		}
		for _, m := range ft.Marks {
			mix(int64(m.At))
			mix(int64(m.Kind))
			mix(m.Arg)
		}
	}
	for _, c := range rt.Ctrl {
		mix(int64(c.Flow))
		mix(int64(c.Start))
		mix(int64(c.Latency))
		mix(int64(c.Level))
		mix(int64(c.Outcome))
	}
	for _, q := range rt.Queue {
		mix(int64(q.At))
		mix(int64(q.Idx))
		mix(int64(q.Len))
		mix(q.Bytes)
	}
	// Route events mix last: a run with none keeps the digest it had
	// before routing control existed.
	for _, r := range rt.Route {
		mix(int64(r.At))
		mix(int64(r.Rack))
		mix(int64(r.Kind))
		mix(int64(r.Spine))
		mix(r.Arg)
	}
	return h
}
