package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"

	"pase"
)

// hostFacts describes where a run was measured, so two sets of runs can
// be shown to come from the same host and code. src_sha256 identifies the
// code when there is no git checkout to take a revision from.
func hostFacts() string {
	rev := pase.GitRev()
	if rev == "" {
		rev = "none"
	}
	b, _ := json.Marshal(map[string]any{
		"go":         runtime.Version(),
		"nproc":      runtime.NumCPU(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"cpu":        cpuModel(),
		"git_rev":    rev,
		"src_sha256": sourceDigest("."),
	})
	return string(b)
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// sourceDigest hashes every Go source and go.mod file under dir, skipping
// hidden directories such as the build output.
func sourceDigest(dir string) string {
	h := sha256.New()
	err := filepath.WalkDir(dir, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path != dir && strings.HasPrefix(d.Name(), ".") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") && d.Name() != "go.mod" {
			return nil
		}
		f, err := os.Open(path)
		if err != nil {
			return err
		}
		defer f.Close()
		fmt.Fprintf(h, "%s\x00", filepath.ToSlash(path))
		_, err = io.Copy(h, f)
		return err
	})
	if err != nil {
		return "unknown"
	}
	return fmt.Sprintf("%x", h.Sum(nil))
}

// span is one interval the benchmark's own code recorded around a call it
// makes: a child process, a Simulate call inside one, a micro-timing.
// Parent is the index of the enclosing span, -1 for a root.
type span struct {
	Name    string `json:"name"`
	ID      int    `json:"id"`
	Parent  int    `json:"parent"`
	StartNS int64  `json:"start_unix_ns"`
	EndNS   int64  `json:"end_unix_ns"`
}

// spanRecorder keeps spans in memory until write. A nil recorder
// records nothing, so timed runs pay only a nil check.
type spanRecorder struct {
	spans []span
}

func (r *spanRecorder) begin(name string, parent int) int {
	if r == nil {
		return -1
	}
	id := len(r.spans)
	r.spans = append(r.spans, span{Name: name, ID: id, Parent: parent, StartNS: time.Now().UnixNano()})
	return id
}

func (r *spanRecorder) end(id int) {
	if r == nil || id < 0 {
		return
	}
	r.spans[id].EndNS = time.Now().UnixNano()
}

// add appends a span recorded elsewhere (a child process), renumbered.
func (r *spanRecorder) add(s span) {
	if r == nil {
		return
	}
	s.ID = len(r.spans)
	r.spans = append(r.spans, s)
}

// write stores the spans as a JSON array.
func (r *spanRecorder) write(path string) error {
	b, err := json.MarshalIndent(r.spans, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}
