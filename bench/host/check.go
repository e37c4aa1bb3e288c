package main

import (
	"embed"
	"encoding/json"
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
)

// refs holds the committed reference digests: ref/<workload>.json for the
// full scale at the default seed, ref/tiny/<workload>.json for the tests.
//
//go:embed ref
var refs embed.FS

// refFile is one workload's reference digests.
type refFile struct {
	Workload string   `json:"workload"`
	Scale    string   `json:"scale"`
	Seed     int64    `json:"seed"`
	Cells    []digest `json:"cells"`
}

func refPath(w workload, sc scale) string {
	if sc.name == fullScale.name {
		return "ref/" + w.name + ".json"
	}
	return "ref/" + sc.name + "/" + w.name + ".json"
}

// loadRef returns the reference digests for w at sc, or nil when none is
// committed.
func loadRef(w workload, sc scale) ([]digest, error) {
	raw, err := refs.ReadFile(refPath(w, sc))
	if errors.Is(err, fs.ErrNotExist) {
		return nil, nil
	}
	if err != nil {
		return nil, err
	}
	var rf refFile
	if err := json.Unmarshal(raw, &rf); err != nil {
		return nil, fmt.Errorf("%s: %w", refPath(w, sc), err)
	}
	return rf.Cells, nil
}

// writeRef records rep's digests as w's reference, relative to dir (the
// benchmark's source directory).
func writeRef(dir string, w workload, sc scale, seed int64, rep repResult) error {
	rf := refFile{Workload: w.name, Scale: sc.name, Seed: seed}
	for _, c := range rep.Cells {
		if c.Digest == nil {
			return fmt.Errorf("cell %s has no digest: %s", c.Name, c.Err)
		}
		rf.Cells = append(rf.Cells, *c.Digest)
	}
	raw, err := json.MarshalIndent(rf, "", "  ")
	if err != nil {
		return err
	}
	path := filepath.Join(dir, filepath.FromSlash(refPath(w, sc)))
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, append(raw, '\n'), 0o644)
}

// checkDigests counts attempted and failed cells over reps. A cell fails
// when it reported an error, or when its digest differs from want (the
// committed reference) or, with no reference, from the first repetition
// that completed the same cell.
func checkDigests(reps []repResult, want []digest) (attempted, failed int, failures []string) {
	expect := map[string]*digest{}
	for i := range want {
		expect[want[i].Cell] = &want[i]
	}
	for ri, r := range reps {
		for _, c := range r.Cells {
			attempted++
			var why string
			switch e, ok := expect[c.Name]; {
			case c.Err != "":
				why = c.Err
			case c.Digest == nil:
				why = "no digest"
			case ok:
				why = diffDigest(e, c.Digest)
			case want != nil:
				why = "cell missing from the reference"
			default:
				expect[c.Name] = c.Digest
			}
			if why != "" {
				failed++
				failures = append(failures, fmt.Sprintf("rep %d cell %s: %s", ri+1, c.Name, why))
			}
		}
	}
	return attempted, failed, failures
}

// diffDigest names the first field in which got differs from want, or
// returns "" when they are equal.
func diffDigest(want, got *digest) string {
	switch {
	case want.Makespan != got.Makespan:
		return fmt.Sprintf("makespan_cycles %d, want %d", got.Makespan, want.Makespan)
	case want.Verified != got.Verified:
		return fmt.Sprintf("verified %v, want %v", got.Verified, want.Verified)
	case want.Events != got.Events:
		return fmt.Sprintf("engine_events %d, want %d", got.Events, want.Events)
	}
	if d := diffCounts("result", want.Result, got.Result); d != "" {
		return d
	}
	return diffCounts("counter", want.Counters, got.Counters)
}

func diffCounts(kind string, want, got map[string]uint64) string {
	keys := map[string]bool{}
	for k := range want {
		keys[k] = true
	}
	for k := range got {
		keys[k] = true
	}
	names := make([]string, 0, len(keys))
	for k := range keys {
		names = append(names, k)
	}
	sort.Strings(names)
	for _, k := range names {
		w, wok := want[k]
		g, gok := got[k]
		if w != g || wok != gok {
			return fmt.Sprintf("%s %s %d, want %d", kind, k, g, w)
		}
	}
	return ""
}
