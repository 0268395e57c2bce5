package main

import (
	"bytes"
	"encoding/json"
	"os"
	"regexp"
	"strings"
	"testing"

	"pase"
)

// The benchmark re-executes its own binary for every simulation; under
// test that binary is the test binary.
func TestMain(m *testing.M) {
	if os.Getenv(childEnv) == "1" {
		os.Exit(childMain(os.Args[1:], os.Stdout))
	}
	os.Exit(m.Run())
}

var nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

// benchmarkFile mirrors BENCHMARK.json at the repository root.
type benchmarkFile struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []metricDef `json:"end_to_end"`
	PerLayer []metricDef `json:"per_layer"`
}

func TestBenchmarkJSONMatchesProgram(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.DisallowUnknownFields()
	var bf benchmarkFile
	if err := dec.Decode(&bf); err != nil {
		t.Fatalf("BENCHMARK.json: %v", err)
	}

	if len(bf.EndToEnd) < 1 || len(bf.EndToEnd) > 16 {
		t.Errorf("%d end-to-end metrics, want 1..16", len(bf.EndToEnd))
	}
	if len(bf.PerLayer) < 1 || len(bf.PerLayer) > 128 {
		t.Errorf("%d per-layer metrics, want 1..128", len(bf.PerLayer))
	}
	seen := map[string]bool{}
	name := func(n string) {
		if !nameRE.MatchString(n) {
			t.Errorf("name %q uses characters outside [A-Za-z0-9_.-] or is too long", n)
		}
		if seen[n] {
			t.Errorf("name %q used twice", n)
		}
		seen[n] = true
	}

	if len(bf.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the program %d", len(bf.Workloads), len(workloads))
	}
	for i, w := range bf.Workloads {
		name(w.Name)
		if w.Name != workloads[i].Name || w.Why != workloads[i].Why {
			t.Errorf("workload %d: BENCHMARK.json has %q (%q), the program %q (%q)",
				i, w.Name, w.Why, workloads[i].Name, workloads[i].Why)
		}
	}
	sameMetrics := func(kind string, got, want []metricDef) {
		if len(got) != len(want) {
			t.Errorf("%s: BENCHMARK.json lists %d metrics, the program %d", kind, len(got), len(want))
			return
		}
		for i := range got {
			name(got[i].Name)
			if got[i] != want[i] {
				t.Errorf("%s metric %d: BENCHMARK.json has %+v, the program %+v", kind, i, got[i], want[i])
			}
			if b := got[i].Better; b != "higher" && b != "lower" {
				t.Errorf("%s: better=%q", got[i].Name, b)
			}
		}
	}
	sameMetrics("end_to_end", bf.EndToEnd, endToEnd)
	sameMetrics("per_layer", bf.PerLayer, perLayer)

	var setup *metricDef
	for i, m := range bf.EndToEnd {
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
		if m.Name == "setup_s" {
			setup = &bf.EndToEnd[i]
		}
	}
	if setup == nil || setup.Unit != "s" || setup.Better != "lower" {
		t.Errorf("setup_s missing or not in s, lower is better: %+v", setup)
	}
	for _, m := range bf.EndToEnd {
		if setup != nil && m.Bound > setup.Bound {
			t.Errorf("%s has a larger bound than setup_s", m.Name)
		}
	}
}

// TestTinyRunsPassGate runs every workload at a tiny size, timed and
// traced, and checks the printed result: the gate passes, every metric
// is printed with its unit and direction, and the host facts and
// sim_digest appear.
func TestTinyRunsPassGate(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload")
	}
	for _, w := range workloads {
		for _, trace := range []string{"0", "1"} {
			t.Run(w.Name+"/trace"+trace, func(t *testing.T) {
				var stdout, stderr bytes.Buffer
				rc := run([]string{"--workload", w.Name, "--seed", "3", "--seconds", "0.001",
					"--trace", trace, "--tiny", "--out", t.TempDir()}, &stdout, &stderr)
				out := stdout.String()
				if rc != 0 {
					t.Fatalf("exit %d\nstdout:\n%s\nstderr:\n%s", rc, out, stderr.String())
				}
				lines := strings.Split(strings.TrimSpace(out), "\n")
				dec := json.NewDecoder(strings.NewReader(lines[len(lines)-1]))
				dec.DisallowUnknownFields()
				var res benchResult
				if err := dec.Decode(&res); err != nil {
					t.Fatalf("last line: %v\n%s", err, out)
				}
				if !res.Correct || res.Failed != 0 || res.Attempted < w.TinyFlows {
					t.Errorf("correct=%v failed=%d attempted=%d", res.Correct, res.Failed, res.Attempted)
				}
				defs := endToEnd
				if trace == "1" {
					defs = perLayer
				}
				if len(res.Metrics) != len(defs) {
					t.Errorf("printed %d metrics, want %d", len(res.Metrics), len(defs))
				}
				for _, d := range defs {
					m, ok := res.Metrics[d.Name]
					if !ok || m.Unit != d.Unit {
						t.Errorf("%s: printed %+v, want unit %s", d.Name, m, d.Unit)
					}
					line := regexp.MustCompile(`(?m)^metric ` + regexp.QuoteMeta(d.Name) +
						` +\S+ +` + regexp.QuoteMeta(d.Unit) + ` +better=` + d.Better + `$`)
					if !line.MatchString(out) {
						t.Errorf("%s is not printed with its unit and direction", d.Name)
					}
				}
				for _, want := range []string{`"go":`, `"nproc":`, `"gomaxprocs":`, `"cpu":`, `"git_rev":`, "sim_digest="} {
					if !strings.Contains(out, want) {
						t.Errorf("output lacks %s", want)
					}
				}
				if trace == "1" && w.Protocol != pase.ProtocolPASE {
					for name, m := range res.Metrics {
						if strings.HasPrefix(name, "arbitration.") && m.Value != 0 {
							t.Errorf("%s = %v on a workload without arbitration", name, m.Value)
						}
					}
				}
			})
		}
	}
}

func TestRejectsBadArguments(t *testing.T) {
	for _, args := range [][]string{
		{"--workload", "no-such-workload"},
		{"--workload", "pase-leftright", "--trace", "2"},
		{"--workload", "pase-leftright", "--seconds", "0"},
	} {
		var stdout, stderr bytes.Buffer
		if rc := run(args, &stdout, &stderr); rc == 0 || stdout.Len() != 0 {
			t.Errorf("%v: exit %d, stdout %q", args, rc, stdout.String())
		}
	}
}

func TestLayerOf(t *testing.T) {
	for fn, want := range map[string]string{
		"pase/internal/sim.(*Engine).Step":                                      "sim",
		"pase/internal/netem.(*Port).pump.func1":                                "netem",
		"pase/internal/transport/dctcp.(*CC).OnAck":                             "transport",
		"pase/internal/core/endhost.(*Endpoint).refresh":                        "transport",
		"pase/internal/core/arbitration.(*Arbitrator).Update":                   "arbitration",
		"runtime.mallocgc":                                                      "runtime",
		"internal/runtime/maps.(*Map).getWithKeySmall":                          "runtime",
		"pase/internal/experiments.sliceOf[go.shape.*pase/internal/sim.Engine]": "",
		"sort.Sort": "",
	} {
		if got := layerOf(fn); got != want {
			t.Errorf("layerOf(%q) = %q, want %q", fn, got, want)
		}
	}
}
