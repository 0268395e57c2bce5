package experiments

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"testing"

	"pase/internal/faults"
	"pase/internal/sim"
	"pase/internal/trace"
)

// The flight recorder's contract is the same as the rest of the run
// machinery: traced runs produce byte-identical output at every
// parallelism and collector mode. These tests pin the exported
// Perfetto bytes — the strongest form of that equality — plus the
// trace-derived observability counters.

func tracedPoint() PointConfig {
	return PointConfig{
		Protocol: DCTCP,
		Scenario: LeftRight,
		Load:     0.7,
		Seed:     11,
		NumFlows: 150,
		Check:    true,
		Trace: TraceConfig{
			FlowLog:     true,
			QueueSample: 100 * sim.Microsecond,
			Spans:       true,
		},
	}
}

// perfettoBytes runs cfg and exports the recorded trace.
func perfettoBytes(t *testing.T, cfg PointConfig) ([]byte, PointResult) {
	t.Helper()
	r := RunPoint(cfg)
	if r.Violations != 0 {
		t.Fatalf("invariant checker reported %d violations:\n%v", r.Violations, r.CheckViolations)
	}
	if r.Trace == nil {
		t.Fatal("no trace recorded")
	}
	var buf bytes.Buffer
	if err := r.Trace.WritePerfetto(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes(), r
}

// TestTracedStreamPerfettoIdentical: a streamed traced run exports the
// same Perfetto bytes and flow-event TSV as its stored twin.
func TestTracedStreamPerfettoIdentical(t *testing.T) {
	cfg := tracedPoint()
	want, stored := perfettoBytes(t, cfg)
	wantEvents, _ := flowEventsTSV(t, stored)
	cfg.Stream = true
	got, r := perfettoBytes(t, cfg)
	if !bytes.Equal(got, want) {
		t.Errorf("stream: Perfetto bytes differ from stored (%d vs %d bytes)", len(got), len(want))
	}
	if gotEvents, _ := flowEventsTSV(t, r); gotEvents != wantEvents {
		t.Error("stream: flow-event TSV differs from stored")
	}
}

func flowEventsTSV(t *testing.T, r PointResult) (string, int) {
	t.Helper()
	var buf bytes.Buffer
	if err := trace.WriteFlowEvents(&buf, r.FlowEvents); err != nil {
		t.Fatal(err)
	}
	return buf.String(), len(r.FlowEvents)
}

// TestTracedChaosDeterminism: fault injection composes with tracing —
// a faulted, checked run traces identically on a re-run, and the
// dropped control exchanges appear as spans.
func TestTracedChaosDeterminism(t *testing.T) {
	cfg := tracedPoint()
	cfg.Protocol = PASE // arbitration hierarchy + fault surface
	cfg.Faults = &faults.Plan{Seed: 5, Ctrl: []faults.CtrlFault{{Drop: 0.3}}}
	want, serial := perfettoBytes(t, cfg)
	if serial.Trace.Stats.CtrlTotal == 0 {
		t.Fatal("faulted PASE run recorded no control spans")
	}
	var dropped bool
	for _, c := range serial.Trace.Ctrl {
		if c.Outcome != 0 { // anything but CtrlOK
			dropped = true
			break
		}
	}
	if !dropped {
		t.Fatal("30% ctrl drop plan left no dropped-exchange spans")
	}
	if got, _ := perfettoBytes(t, cfg); !bytes.Equal(got, want) {
		t.Error("faulted trace differs on a re-run")
	}
}

// TestPASETraceCtrlAndHistograms: a traced PASE run records the full
// control-plane story — wait spans, grant marks, per-level arbitration
// RTT histograms and the inflight-allocations gauge.
func TestPASETraceCtrlAndHistograms(t *testing.T) {
	cfg := tracedPoint()
	cfg.Protocol = PASE
	cfg.Obs = true
	_, r := perfettoBytes(t, cfg)
	if r.Trace.Stats.CtrlTotal == 0 {
		t.Fatal("no control spans recorded")
	}
	var waits, grants int
	for _, ft := range r.Trace.Flows {
		if ft.WaitCtrl() > 0 {
			waits++
		}
		for _, m := range ft.Marks {
			if m.Kind.String() == "grant" {
				grants++
			}
		}
	}
	if waits == 0 || grants == 0 {
		t.Fatalf("PASE trace: %d flows with wait spans, %d grant marks — lifecycle not recorded", waits, grants)
	}
	snap := r.Obs
	var rttObs int64
	for _, lvl := range []string{"arb/rtt/level0", "arb/rtt/level1", "arb/rtt/level2", "arb/rtt/level3"} {
		h, ok := snap.Histograms[lvl]
		if !ok {
			t.Fatalf("missing histogram %s (have %d histograms)", lvl, len(snap.Histograms))
		}
		rttObs += h.Count
	}
	if rttObs == 0 {
		t.Fatal("arbitration RTT histograms empty")
	}
	if _, ok := snap.Gauges["arb/inflight_allocs"]; !ok {
		t.Fatal("missing arb/inflight_allocs gauge")
	}
	for _, c := range []string{"trace/flows_started", "trace/flows_final", "trace/ctrl_spans"} {
		if snap.Counters[c] == 0 {
			t.Fatalf("counter %s = 0", c)
		}
	}
}

// TestTraceSamplingKeepsBudget: 1-in-N sampling bounds retention while
// stats keep the full population count.
func TestTraceSamplingKeepsBudget(t *testing.T) {
	cfg := tracedPoint()
	cfg.Trace.SampleN = 8
	_, r := perfettoBytes(t, cfg)
	st := r.Trace.Stats
	if st.FlowsSampledOut == 0 {
		t.Fatal("sampleN=8 kept every flow")
	}
	if st.FlowsStarted != st.FlowsFinal+st.FlowsSampledOut+st.FlowsUnfinished+st.FlowsEvicted {
		t.Fatalf("retention stats don't add up: %+v", st)
	}
}

// TestGoldenPerfettoTrace pins a small traced run's exported bytes to
// a golden file. Regenerate with PASE_UPDATE=1 go test ./internal/experiments
// -run TestGoldenPerfettoTrace and review the diff like any golden.
func TestGoldenPerfettoTrace(t *testing.T) {
	cfg := PointConfig{
		Protocol: DCTCP, Scenario: LeftRight, Load: 0.6, Seed: 1, NumFlows: 40,
		Trace: TraceConfig{Spans: true, QueueSample: 200 * sim.Microsecond},
	}
	got, _ := perfettoBytes(t, cfg)
	if !json.Valid(got) {
		t.Fatal("exported trace is not valid JSON")
	}
	golden := filepath.Join("testdata", "golden_trace.json")
	if os.Getenv("PASE_UPDATE") != "" {
		if err := os.WriteFile(golden, got, 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %s (%d bytes)", golden, len(got))
		return
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("%v (regenerate with PASE_UPDATE=1)", err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("trace bytes diverged from %s (%d vs %d bytes); regenerate with PASE_UPDATE=1 and review",
			golden, len(got), len(want))
	}
}
