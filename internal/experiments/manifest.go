package experiments

import (
	"encoding/json"
	"io"
	"os"
	"runtime"
	"runtime/debug"
	"strconv"
	"strings"
	"time"

	"pase/internal/obs"
)

// Manifest is the JSON record emitted alongside a figure's TSV: the
// parameters, seeds, code revision, wall-clock cost and merged
// observability snapshot of one run — enough to reproduce it and to
// diff two runs counter by counter.
type Manifest struct {
	Tool      string `json:"tool"`
	Figure    string `json:"figure,omitempty"`
	Title     string `json:"title,omitempty"`
	GitRev    string `json:"git_rev,omitempty"`
	GoVersion string `json:"go_version,omitempty"`
	// Started is the wall-clock start in RFC 3339; WallClockMS is the
	// run's real-time cost.
	Started     string  `json:"started,omitempty"`
	WallClockMS float64 `json:"wall_clock_ms"`

	Params ManifestParams `json:"params"`

	// Points / Retx / Timeouts summarize the grid.
	Points   int   `json:"points"`
	Retx     int64 `json:"retx"`
	Timeouts int64 `json:"timeouts"`

	// PeakRSSBytes is the process's high-water resident set
	// (VmHWM from /proc/self/status; 0 where unavailable) and
	// HeapSysBytes the Go heap's footprint at manifest time. Together
	// they pin the memory cost of a run — the number the streaming
	// scale figure exists to keep flat.
	PeakRSSBytes int64  `json:"peak_rss_bytes,omitempty"`
	HeapSysBytes uint64 `json:"heap_sys_bytes,omitempty"`

	// Snapshot is the deterministically merged observability of every
	// simulation point (input-order merge; identical bytes at every
	// parallelism setting).
	Snapshot *obs.Snapshot `json:"snapshot,omitempty"`
}

// ManifestParams is the serializable subset of Opts.
type ManifestParams struct {
	NumFlows    int       `json:"num_flows,omitempty"`
	Seed        uint64    `json:"seed"`
	Seeds       int       `json:"seeds,omitempty"`
	Loads       []float64 `json:"loads,omitempty"`
	Parallelism int       `json:"parallelism,omitempty"`
	// Faults is the canonical fault-plan spec applied to the run
	// (empty when no faults were injected).
	Faults string `json:"faults,omitempty"`
	// Stream records that the run used the bounded-memory streaming
	// path; SketchEps is the quantile sketch's relative error bound
	// (0 = metrics.DefaultSketchEps).
	Stream    bool    `json:"stream,omitempty"`
	SketchEps float64 `json:"sketch_eps,omitempty"`
}

// GitRev returns the VCS revision baked into the binary by the Go
// toolchain ("" outside a VCS build). A "+dirty" suffix marks
// uncommitted changes.
func GitRev() string {
	bi, ok := debug.ReadBuildInfo()
	if !ok {
		return ""
	}
	var rev, modified string
	for _, s := range bi.Settings {
		switch s.Key {
		case "vcs.revision":
			rev = s.Value
		case "vcs.modified":
			if s.Value == "true" {
				modified = "+dirty"
			}
		}
	}
	return rev + modified
}

// NewManifest assembles the manifest for one figure run.
func NewManifest(tool string, res *Result, o Opts, started time.Time, wall time.Duration) *Manifest {
	m := &Manifest{
		Tool:        tool,
		GitRev:      GitRev(),
		Started:     started.UTC().Format(time.RFC3339),
		WallClockMS: float64(wall) / float64(time.Millisecond),
		Params: ManifestParams{
			NumFlows:    o.NumFlows,
			Seed:        o.Seed,
			Seeds:       o.Seeds,
			Loads:       o.Loads,
			Parallelism: o.Parallelism,
			Stream:      o.Stream,
			SketchEps:   o.SketchEps,
		},
		PeakRSSBytes: peakRSS(),
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	m.HeapSysBytes = ms.HeapSys
	if !o.Faults.Empty() {
		m.Params.Faults = o.Faults.String()
	}
	if bi, ok := debug.ReadBuildInfo(); ok {
		m.GoVersion = bi.GoVersion
	}
	if res != nil {
		m.Figure = res.ID
		m.Title = res.Title
		m.Points = res.Points
		m.Retx = res.Retx
		m.Timeouts = res.Timeouts
		m.Snapshot = res.Obs
	}
	return m
}

// peakRSS reads the process's high-water resident set from Linux's
// /proc/self/status (the VmHWM line, reported in kB). It returns 0 on
// platforms without procfs or when the line is missing — the manifest
// field is best-effort, not a portability promise.
func peakRSS() int64 {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(b), "\n") {
		if !strings.HasPrefix(line, "VmHWM:") {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) < 2 {
			return 0
		}
		kb, err := strconv.ParseInt(fields[1], 10, 64)
		if err != nil {
			return 0
		}
		return kb * 1024
	}
	return 0
}

// Write emits the manifest as indented JSON.
func (m *Manifest) Write(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(m)
}
