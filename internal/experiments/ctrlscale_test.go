package experiments

import (
	"fmt"
	"testing"
)

// The control-plane conformance suite pins the arbitration hierarchy
// and the centralized comparison arm the same way conformance_test.go
// pins the transports: one small deterministic ctrlscale fabric, full
// behavior digest, zero checker violations. A moved digest means the
// control plane schedules differently — intended changes re-pin (run
// with -run TestCtrlPlaneConformanceDigest -v and copy the "got"
// values), unintended ones are regressions.

// ctrlConformancePoint is the pinned scenario: the 16-rack ctrlscale
// fabric at 80% load — small enough to run in well under a second per
// arm, cross-rack enough that refreshes climb the full hierarchy.
func ctrlConformancePoint(opt PASEOptions) PointConfig {
	return PointConfig{
		Protocol: PASE,
		Scenario: Scenario("ctrlscale-16"),
		Load:     0.8,
		Seed:     7,
		NumFlows: 120,
		Check:    true,
		PASE:     opt,
	}
}

// ctrlArms are the pinned control-plane configurations: the default
// hierarchy the ctrlscale spec picks (fan-out 4, 2 root shards), a
// deep binary hierarchy (fan-out 2 → five levels over 16 racks,
// stressing multi-level delegation and pruning), and the centralized
// scheduler arm.
var ctrlArms = []struct {
	name   string
	opt    PASEOptions
	digest uint64
}{
	{"hierarchy", PASEOptions{}, 0x5a742fd1a07e478a},
	{"deep-hierarchy", PASEOptions{HierFanOut: 2, HierTopShards: 1}, 0xb64ec0ba9f614e94},
	{"central", PASEOptions{Central: true}, 0x27a4d1242feb3758},
}

func TestCtrlPlaneConformanceDigest(t *testing.T) {
	for _, arm := range ctrlArms {
		arm := arm
		t.Run(arm.name, func(t *testing.T) {
			t.Parallel()
			r := RunPoint(ctrlConformancePoint(arm.opt))
			if r.Violations != 0 {
				t.Fatalf("invariant checker reported %d violations:\n%v",
					r.Violations, r.CheckViolations)
			}
			if r.Summary.Completed == 0 {
				t.Fatal("no flows completed")
			}
			got := digestResult(r)
			if got != arm.digest {
				t.Errorf("behavior digest changed: got %#x, want %#x", got, arm.digest)
			}
		})
	}
}

// TestCtrlPlaneDeterminism re-runs the deep-hierarchy arm — the one
// with the most control-plane machinery in play — and requires an
// identical digest.
func TestCtrlPlaneDeterminism(t *testing.T) {
	cfg := ctrlConformancePoint(ctrlArms[1].opt)
	a := digestResult(RunPoint(cfg))
	b := digestResult(RunPoint(cfg))
	if a != b {
		t.Fatalf("same config, different digests: %#x vs %#x", a, b)
	}
}

// TestCtrlPlaneHierarchyDeterminism re-runs the default hierarchy arm
// under the checker and requires zero violations and an identical
// digest.
func TestCtrlPlaneHierarchyDeterminism(t *testing.T) {
	cfg := ctrlConformancePoint(PASEOptions{})
	want := digestResult(runChecked(t, cfg))
	if rerun := digestResult(runChecked(t, cfg)); rerun != want {
		t.Fatalf("same config, different digests: %#x vs %#x", rerun, want)
	}
}

// TestCtrlScaleAcceptance pins the scaling claim the ctrlscale figure
// makes: with the workload held fixed, the hierarchy's control-message
// count grows sub-linearly in fabric size while the centralized arm's
// grows with the fabric (its sync traffic touches every link every
// epoch). Both arms must complete every flow with zero checker
// violations at every size.
func TestCtrlScaleAcceptance(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-point checked sweep")
	}
	const flows = 400
	rackCounts := []int{16, 64, 256}
	msgs := map[string][]float64{}
	for _, arm := range []struct {
		name string
		opt  PASEOptions
	}{
		{"hierarchy", PASEOptions{}},
		{"central", PASEOptions{Central: true}},
	} {
		for _, racks := range rackCounts {
			cfg := PointConfig{
				Protocol: PASE,
				Scenario: Scenario(fmt.Sprintf("%s-%d", CtrlScale, racks)),
				Load:     0.6,
				Seed:     7,
				NumFlows: flows,
				Check:    true,
				Obs:      true,
				PASE:     arm.opt,
			}
			r := RunPoint(cfg)
			if r.Violations != 0 {
				t.Fatalf("%s at %d racks: %d checker violations:\n%v",
					arm.name, racks, r.Violations, r.CheckViolations)
			}
			if r.Summary.Completed != flows {
				t.Fatalf("%s at %d racks: %d/%d flows completed",
					arm.name, racks, r.Summary.Completed, flows)
			}
			if r.Obs == nil {
				t.Fatalf("%s at %d racks: no observability snapshot", arm.name, racks)
			}
			m := float64(r.Obs.Counters["arb/messages"])
			if m <= 0 {
				t.Fatalf("%s at %d racks: no control messages recorded", arm.name, racks)
			}
			msgs[arm.name] = append(msgs[arm.name], m)
		}
	}
	fabricRatio := float64(rackCounts[len(rackCounts)-1]) / float64(rackCounts[0]) // 16×
	hierGrowth := msgs["hierarchy"][2] / msgs["hierarchy"][0]
	centGrowth := msgs["central"][2] / msgs["central"][0]
	t.Logf("control messages over a %gx fabric: hierarchy ×%.2f, central ×%.2f",
		fabricRatio, hierGrowth, centGrowth)
	// Sub-linear: the hierarchy's growth stays far under the fabric's.
	// Measured ×1.40 over 16× racks; half the fabric ratio leaves room
	// for workload-mix drift without masking a real regression.
	if hierGrowth >= fabricRatio/2 {
		t.Errorf("hierarchy control messages grew ×%.2f over a %gx fabric — no longer sub-linear",
			hierGrowth, fabricRatio)
	}
	// The centralized arm pays for fabric size (measured ×3.28): it
	// must grow at least ~2× faster than the hierarchy, or the
	// comparison the figure draws has silently collapsed.
	if centGrowth < 1.8*hierGrowth {
		t.Errorf("central growth ×%.2f is not meaningfully above hierarchy growth ×%.2f",
			centGrowth, hierGrowth)
	}
}
