package experiments

import (
	"bytes"
	"hash/fnv"
	"sort"
	"testing"
)

// The conformance suite pins a digest of every transport's behavior on
// one small deterministic scenario. The digest covers each flow's full
// integer outcome (identity, size, start/finish times, retransmission
// counts) plus the fabric-wide queue totals, so any behavioral drift —
// a scheduling change, an off-by-one in a queue discipline, a window
// rule tweak — moves it. Every run also executes under the runtime
// invariant checker and must report zero violations.
//
// When a deliberate behavior change moves a digest, re-pin it: run
//
//	go test ./internal/experiments -run TestConformanceDigest -v
//
// and copy the "got" values printed by the failures into goldenDigests.

// conformancePoint is the pinned scenario: small enough to run in
// ~100 ms per transport, busy enough (80% load, all-to-all) to exercise
// queueing, marking, drops and retransmissions. D2TCP runs the deadline
// workload — without deadlines it degenerates to DCTCP exactly (same
// digest), and the point of its pin is the deadline-aware behavior.
func conformancePoint(p Protocol) PointConfig {
	s := IntraRack
	if p == D2TCP {
		s = Deadline
	}
	return PointConfig{
		Protocol: p,
		Scenario: s,
		Load:     0.8,
		Seed:     7,
		NumFlows: 120,
		Check:    true,
	}
}

// runChecked runs cfg and fails the test on any invariant violation or
// a run that completed no flows.
func runChecked(t *testing.T, cfg PointConfig) PointResult {
	t.Helper()
	r := RunPoint(cfg)
	if r.Violations != 0 {
		t.Fatalf("invariant checker reported %d violations:\n%v", r.Violations, r.CheckViolations)
	}
	if r.Summary.Completed == 0 {
		t.Fatal("no flows completed")
	}
	return r
}

// digestResult folds a point's per-flow outcomes and queue totals into
// one FNV-1a value. Records are sorted by flow ID first so the digest
// pins behavior, not collection order.
func digestResult(r PointResult) uint64 {
	recs := append([]_Rec(nil), toRecs(r)...)
	sort.Slice(recs, func(i, j int) bool { return recs[i][0] < recs[j][0] })
	h := fnv.New64a()
	var buf [8]byte
	put := func(v uint64) {
		for i := range buf {
			buf[i] = byte(v >> (8 * i))
		}
		h.Write(buf[:])
	}
	for _, rec := range recs {
		for _, v := range rec {
			put(v)
		}
	}
	q := r.Queues
	for _, v := range []int64{q.Enqueued, q.Dequeued, q.Dropped, q.Marked,
		q.EnqueuedData, q.DroppedData, q.DroppedBytes} {
		put(uint64(v))
	}
	return h.Sum64()
}

// _Rec is one flow's digestible outcome.
type _Rec [9]uint64

func toRecs(r PointResult) []_Rec {
	out := make([]_Rec, 0, len(r.Records))
	for _, rec := range r.Records {
		var done uint64
		if rec.Done {
			done = 1
		}
		out = append(out, _Rec{
			rec.ID, rec.Task, uint64(rec.Size), uint64(rec.Start),
			uint64(rec.Finish), uint64(rec.Deadline), done,
			uint64(rec.Retx), uint64(rec.Timeouts),
		})
	}
	return out
}

// goldenDigests pins every transport's behavior on the conformance
// scenario. A changed value means the simulation behaves differently —
// intended changes re-pin (see the package comment above), unintended
// ones are regressions.
var goldenDigests = map[Protocol]uint64{
	DCTCP:       0xdabcc6b759539fd4,
	D2TCP:       0xfb4c9230a35f8243,
	L2DCT:       0xa09058f68b5aac00,
	PFabric:     0xb87509d8a3df31b9,
	PDQ:         0xbd153bc762d781ad,
	PASE:        0x5d25b73f33b12b38,
	ExpressPass: 0x80b7aead1a5d3c92,
}

func TestConformanceDigest(t *testing.T) {
	for _, p := range []Protocol{DCTCP, D2TCP, L2DCT, PFabric, PDQ, PASE, ExpressPass} {
		p := p
		t.Run(string(p), func(t *testing.T) {
			t.Parallel()
			r := RunPoint(conformancePoint(p))
			if r.Violations != 0 {
				t.Fatalf("invariant checker reported %d violations:\n%v",
					r.Violations, r.CheckViolations)
			}
			if r.Summary.Completed == 0 {
				t.Fatal("no flows completed")
			}
			got := digestResult(r)
			if want := goldenDigests[p]; got != want {
				t.Errorf("behavior digest changed: got %#x, want %#x", got, want)
			}
		})
	}
}

// TestConformanceDeterminism re-runs one point and requires the digest
// to be identical — the foundation the golden pins stand on.
func TestConformanceDeterminism(t *testing.T) {
	cfg := conformancePoint(PASE)
	a := digestResult(RunPoint(cfg))
	b := digestResult(RunPoint(cfg))
	if a != b {
		t.Fatalf("same config, different digests: %#x vs %#x", a, b)
	}
}

// goldenFig9aTSV pins one figure point end to end: the exact TSV the
// harness emits for Figure 9a at 50% load, 100 flows per point,
// averaged over 2 seeds. This is the full pipeline — workload
// generation, all three transports, sweep assembly, TSV rendering —
// in one regression check.
const goldenFig9aTSV = "# Figure 9a: AFCT (left-right inter-rack)\n" +
	"# Offered load (%)\tPASE\tL2DCT\tDCTCP\t(AFCT (ms))\n" +
	"50\t1.4399635\t1.4731975\t1.518573\n" +
	"# totals: points=6 retx=0 timeouts=0\n"

func TestGoldenFig9aTSV(t *testing.T) {
	o := Opts{NumFlows: 100, Seed: 1, Seeds: 2, Loads: []float64{0.5}, Check: true}
	fig, ok := Lookup("9a")
	if !ok {
		t.Fatal("figure 9a not registered")
	}
	res := fig.Run(o)
	if res.Violations != 0 {
		t.Fatalf("invariant checker reported %d violations", res.Violations)
	}
	var buf bytes.Buffer
	if err := res.WriteTSV(&buf); err != nil {
		t.Fatal(err)
	}
	if got := buf.String(); got != goldenFig9aTSV {
		t.Errorf("figure 9a TSV changed:\ngot:\n%s\nwant:\n%s", got, goldenFig9aTSV)
	}
}
