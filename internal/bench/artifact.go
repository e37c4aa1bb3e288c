package bench

import (
	"encoding/json"
	"fmt"
	"hash/fnv"
	"io"
	"math"
	"os"
	"runtime/debug"
	"strings"

	"daxvm/internal/obs"
	"daxvm/internal/obs/bottleneck"
	"daxvm/internal/obs/span"
	"daxvm/internal/obs/timeline"
)

// ArtifactSchema identifies the per-experiment JSON artifact format:
// provenance (git_sha, config_hash), the cycle breakdown, the timeline
// and host telemetry, the span layer's critical_path and exemplars, and
// the saturation section (per-segment bottleneck reports, with
// sub-segments named "<id>/<suffix>"). It is the only schema
// ValidateArtifact accepts; DESIGN.md §6 records how it grew.
const ArtifactSchema = "daxvm-bench/v5"

// Artifact is the machine-readable outcome of one experiment run, written
// as BENCH_<id>.json. Metrics mirror Result.Metrics; Snapshot, when
// present, is the observability registry state after the run;
// CycleBreakdown, when present, is the cycle-attribution delta for this
// experiment alone; Timeline, when present, holds this experiment's
// interval samples; CriticalPath and Exemplars, when present, hold the
// span layer's per-op-class latency decomposition and top-K slowest
// span trees; Saturation, when present, holds one bottleneck report
// per embedded timeline segment. Every field except Host is a pure
// function of the build:
// two runs of the same binary produce byte-identical artifacts up to
// the host block, which is measured outside the deterministic core.
type Artifact struct {
	Schema         string                 `json:"schema"`
	ID             string                 `json:"id"`
	Title          string                 `json:"title"`
	Quick          bool                   `json:"quick"`
	GitSHA         string                 `json:"git_sha,omitempty"`
	ConfigHash     string                 `json:"config_hash,omitempty"`
	Metrics        map[string]float64     `json:"metrics"`
	Notes          []string               `json:"notes,omitempty"`
	Snapshot       *obs.Snapshot          `json:"snapshot,omitempty"`
	CycleBreakdown *obs.CycleSnapshot     `json:"cycle_breakdown,omitempty"`
	Timeline       []timeline.Export      `json:"timeline,omitempty"`
	CriticalPath   []span.ClassExport     `json:"critical_path,omitempty"`
	Exemplars      map[string][]span.Span `json:"exemplars,omitempty"`
	Saturation     []bottleneck.Report    `json:"saturation,omitempty"`
	Host           *HostTelemetry         `json:"host,omitempty"`
}

// HostTelemetry is the artifact's only wall-clock-dependent block: how
// fast the host machine ground through the simulation. Events is the
// deterministic engine-event count (sim.Engine.Events summed over
// engines); WallSeconds and EventsPerSec vary run to run, which is why
// -compare treats them as informational and never gates on them.
type HostTelemetry struct {
	WallSeconds  float64 `json:"wall_seconds"`
	Events       uint64  `json:"engine_events"`
	EventsPerSec float64 `json:"events_per_sec"`
}

// NewArtifact packages a result (and optionally the post-run registry
// snapshot and cycle breakdown) for serialization. The options' topology
// overrides feed the config hash, so -compare refuses cross-topology
// diffs.
func NewArtifact(r *Result, o Options, snap *obs.Snapshot, cycles *obs.CycleSnapshot) *Artifact {
	m := r.Metrics
	if m == nil {
		m = map[string]float64{}
	}
	a := &Artifact{
		Schema:         ArtifactSchema,
		ID:             r.ID,
		Title:          r.Title,
		Quick:          o.Quick,
		GitSHA:         gitSHA(),
		ConfigHash:     configHash(r.ID, o.Quick, o.Nodes, o.Placement),
		Metrics:        m,
		Notes:          r.Notes,
		Snapshot:       snap,
		CycleBreakdown: cycles,
	}
	if o.Timeline != nil {
		// A shared timeline accumulates segments across experiments; the
		// artifact embeds this experiment's own segment plus any
		// sub-segments it opened ("<id>/<suffix>", e.g. one per sweep
		// point), and attributes a bottleneck per embedded segment.
		for _, ex := range o.Timeline.Export() {
			if ex.Segment != r.ID && !strings.HasPrefix(ex.Segment, r.ID+"/") {
				continue
			}
			a.Timeline = append(a.Timeline, ex)
			var sp *span.SegmentExport
			if seg, ok := o.Spans.ExportSegment(ex.Segment); ok {
				sp = &seg
			}
			a.Saturation = append(a.Saturation, bottleneck.Analyze(ex, sp))
		}
	}
	if seg, ok := o.Spans.ExportSegment(r.ID); ok {
		a.CriticalPath = seg.Classes
		a.Exemplars = seg.Exemplars
	}
	return a
}

// gitSHA resolves the source revision the binary was built from:
// DAXVM_GIT_SHA wins (CI sets it), then the vcs.revision embedded by the
// go toolchain, then "unknown" (e.g. `go test` builds without VCS stamps).
func gitSHA() string {
	if sha := os.Getenv("DAXVM_GIT_SHA"); sha != "" {
		return sha
	}
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				return s.Value
			}
		}
	}
	return "unknown"
}

// configHash fingerprints the run configuration that determines an
// artifact's numbers. Comparing artifacts with different hashes is
// meaningless (quick vs full working sets, different experiments,
// different machine topologies), so the comparator refuses them.
// Topology overrides extend the pre-NUMA hash input only when
// non-default, keeping historical single-node hashes stable.
func configHash(id string, quick bool, nodes int, placement string) string {
	h := fnv.New64a()
	fmt.Fprintf(h, "%s|quick=%v", id, quick)
	if nodes > 1 {
		fmt.Fprintf(h, "|nodes=%d", nodes)
	}
	if placement != "" {
		fmt.Fprintf(h, "|placement=%s", placement)
	}
	return fmt.Sprintf("%016x", h.Sum64())
}

// WriteArtifact serializes the artifact as indented JSON.
func (a *Artifact) WriteArtifact(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(a)
}

// ValidateArtifact checks raw bytes against the artifact schema:
// required fields present with the right JSON types, schema id equal to
// ArtifactSchema, metric values finite numbers, and each optional
// section well-formed. Hand-rolled — the toolchain has no JSON Schema
// validator and the format is small enough not to want one.
func ValidateArtifact(raw []byte) error {
	var top map[string]json.RawMessage
	if err := json.Unmarshal(raw, &top); err != nil {
		return fmt.Errorf("artifact: not a JSON object: %w", err)
	}
	var schema string
	if err := unmarshalField(top, "schema", &schema); err != nil {
		return err
	}
	if schema != ArtifactSchema {
		return fmt.Errorf("artifact: schema %q, want %q", schema, ArtifactSchema)
	}
	var id, title string
	if err := unmarshalField(top, "id", &id); err != nil {
		return err
	}
	if id == "" {
		return fmt.Errorf("artifact: empty id")
	}
	if err := unmarshalField(top, "title", &title); err != nil {
		return err
	}
	var quick bool
	if err := unmarshalField(top, "quick", &quick); err != nil {
		return err
	}
	var metrics map[string]float64
	if err := unmarshalField(top, "metrics", &metrics); err != nil {
		return err
	}
	var sha, cfg string
	if err := unmarshalField(top, "git_sha", &sha); err != nil {
		return err
	}
	if sha == "" {
		return fmt.Errorf("artifact: empty git_sha")
	}
	if err := unmarshalField(top, "config_hash", &cfg); err != nil {
		return err
	}
	if cfg == "" {
		return fmt.Errorf("artifact: empty config_hash")
	}
	if snap, ok := top["snapshot"]; ok {
		var s obs.Snapshot
		if err := json.Unmarshal(snap, &s); err != nil {
			return fmt.Errorf("artifact: bad snapshot: %w", err)
		}
	}
	if cb, ok := top["cycle_breakdown"]; ok {
		var c obs.CycleSnapshot
		if err := json.Unmarshal(cb, &c); err != nil {
			return fmt.Errorf("artifact: bad cycle_breakdown: %w", err)
		}
	}
	if tlRaw, ok := top["timeline"]; ok {
		var exs []timeline.Export
		if err := json.Unmarshal(tlRaw, &exs); err != nil {
			return fmt.Errorf("artifact: bad timeline: %w", err)
		}
		for _, ex := range exs {
			for i, iv := range ex.Intervals {
				if iv.End < iv.Start {
					return fmt.Errorf("artifact: timeline %q interval %d ends before it starts", ex.Segment, i)
				}
			}
		}
	}
	if hostRaw, ok := top["host"]; ok {
		var h HostTelemetry
		if err := json.Unmarshal(hostRaw, &h); err != nil {
			return fmt.Errorf("artifact: bad host: %w", err)
		}
		if h.WallSeconds < 0 || h.EventsPerSec < 0 {
			return fmt.Errorf("artifact: negative host telemetry")
		}
	}
	if cpRaw, ok := top["critical_path"]; ok {
		var classes []span.ClassExport
		if err := json.Unmarshal(cpRaw, &classes); err != nil {
			return fmt.Errorf("artifact: bad critical_path: %w", err)
		}
		prev := ""
		for i, ce := range classes {
			if ce.Class == "" {
				return fmt.Errorf("artifact: critical_path entry %d has empty class", i)
			}
			if i > 0 && ce.Class <= prev {
				return fmt.Errorf("artifact: critical_path classes not sorted (%q after %q)", ce.Class, prev)
			}
			prev = ce.Class
			if ce.Count == 0 {
				return fmt.Errorf("artifact: critical_path class %q has zero count", ce.Class)
			}
			if ce.SelfCycles > ce.TotalCycles {
				return fmt.Errorf("artifact: critical_path class %q self exceeds total", ce.Class)
			}
			for _, q := range []float64{ce.AvgCycles, ce.P50Cycles, ce.P99Cycles} {
				if math.IsNaN(q) || math.IsInf(q, 0) {
					return fmt.Errorf("artifact: critical_path class %q has non-finite quantile", ce.Class)
				}
			}
		}
	}
	if exRaw, ok := top["exemplars"]; ok {
		var exs map[string][]span.Span
		if err := json.Unmarshal(exRaw, &exs); err != nil {
			return fmt.Errorf("artifact: bad exemplars: %w", err)
		}
		for class, trees := range exs {
			if class == "" {
				return fmt.Errorf("artifact: exemplars has empty class key")
			}
			for i := range trees {
				if err := validateSpanTree(&trees[i]); err != nil {
					return fmt.Errorf("artifact: exemplar %q[%d]: %w", class, i, err)
				}
			}
		}
	}
	if satRaw, ok := top["saturation"]; ok {
		var reports []bottleneck.Report
		if err := json.Unmarshal(satRaw, &reports); err != nil {
			return fmt.Errorf("artifact: bad saturation: %w", err)
		}
		for i, rep := range reports {
			if rep.Segment == "" {
				return fmt.Errorf("artifact: saturation report %d has empty segment", i)
			}
			if rep.Verdict == "" {
				return fmt.Errorf("artifact: saturation %q has empty verdict", rep.Segment)
			}
			for _, res := range rep.Resources {
				for _, v := range []float64{res.Utilization, res.MeanQueue, res.Score} {
					if math.IsNaN(v) || math.IsInf(v, 0) {
						return fmt.Errorf("artifact: saturation %q resource %q has non-finite value", rep.Segment, res.Name)
					}
				}
			}
		}
	}
	return nil
}

// validateSpanTree checks the structural invariants every exported span
// tree must satisfy: self-time never exceeds duration (charges advance
// the clock by what they book), and children nest inside the parent's
// window (spans close LIFO on one thread).
func validateSpanTree(s *span.Span) error {
	if s.Class == "" {
		return fmt.Errorf("span with empty class")
	}
	if s.TreeSelf > s.Dur {
		return fmt.Errorf("span %q tree_self %d exceeds dur %d", s.Class, s.TreeSelf, s.Dur)
	}
	if s.Self > s.TreeSelf {
		return fmt.Errorf("span %q self %d exceeds tree_self %d", s.Class, s.Self, s.TreeSelf)
	}
	for i := range s.Children {
		c := &s.Children[i]
		if c.Start < s.Start || c.Start+c.Dur > s.Start+s.Dur {
			return fmt.Errorf("child %q escapes parent %q window", c.Class, s.Class)
		}
		if err := validateSpanTree(c); err != nil {
			return err
		}
	}
	return nil
}

func unmarshalField(top map[string]json.RawMessage, name string, into any) error {
	raw, ok := top[name]
	if !ok {
		return fmt.Errorf("artifact: missing required field %q", name)
	}
	if err := json.Unmarshal(raw, into); err != nil {
		return fmt.Errorf("artifact: field %q: %w", name, err)
	}
	return nil
}
