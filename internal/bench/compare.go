package bench

import (
	"encoding/json"
	"fmt"
	"strings"

	"daxvm/internal/obs"
)

// Comparison thresholds. Experiments are deterministic, so drift between
// two runs of the same tree is zero; the margins exist to absorb benign
// cost-model retunes that stay within noise of the paper's shape claims.
const (
	// metricTolerance is the default relative change allowed per metric.
	metricTolerance = 0.10
	// cycleTolerance is the relative change allowed per cycle leaf and for
	// the attributed total.
	cycleTolerance = 0.05
	// cycleMinShare filters leaves below this share of the attributed
	// total: a 5% swing on a 0.01% leaf is not a regression signal.
	cycleMinShare = 0.005
)

// MismatchError reports artifacts that must not be compared (different
// experiment, quick vs full, diverged config). The CLI maps it to exit
// code 2, distinct from a genuine regression (exit 1).
type MismatchError struct{ Reason string }

func (e *MismatchError) Error() string { return "compare: " + e.Reason }

// Regression is one metric or cycle leaf that moved past tolerance in the
// slow/wrong direction.
type Regression struct {
	Name      string // metric name, or "cycles:" + attribution path
	Old, New  float64
	RelChange float64 // signed, relative to old
}

func (r Regression) String() string {
	return fmt.Sprintf("%-50s %14.3f -> %14.3f  (%+.1f%%)", r.Name, r.Old, r.New, 100*r.RelChange)
}

// CompareReport is the outcome of comparing a new artifact to a baseline.
type CompareReport struct {
	ID          string
	Regressions []Regression
	Checked     int // metrics + cycle leaves examined
	// Info lines are purely informational (host wall-clock speed deltas):
	// printed by the CLI but never counted as regressions, because host
	// speed is noise-prone and must not flip the gate's exit code.
	Info []string
}

// lowerBetter reports whether a metric regresses by growing. The
// experiment registration is the source of truth (Experiment.LowerBetter,
// set by registerCost for all-cost experiments); for artifacts from
// experiments this binary doesn't know — old baselines, renamed ids —
// metric-name conventions decide: overhead percentages, storage
// footprints, and boot latency are costs, everything else is
// throughput-shaped (higher better).
func lowerBetter(id, metric string) bool {
	if e, ok := ByID(id); ok && e.LowerBetter != nil {
		return e.LowerBetter(metric)
	}
	switch {
	case strings.HasPrefix(metric, "overhead-pct"),
		strings.HasPrefix(metric, "pmem/"),
		strings.HasPrefix(metric, "dram/"),
		strings.HasSuffix(metric, "/boot-ms"),
		metric == "pmem-pct", metric == "dram-mb":
		return true
	}
	return false
}

// CompareArtifacts validates both artifacts, refuses cross-config pairs,
// and reports every metric and cycle-breakdown leaf that regressed past
// tolerance. git_sha differences are expected (that is the point of the
// gate) and ignored.
func CompareArtifacts(oldRaw, newRaw []byte) (*CompareReport, error) {
	if err := ValidateArtifact(oldRaw); err != nil {
		return nil, fmt.Errorf("baseline: %w", err)
	}
	if err := ValidateArtifact(newRaw); err != nil {
		return nil, fmt.Errorf("new: %w", err)
	}
	var oa, na Artifact
	if err := json.Unmarshal(oldRaw, &oa); err != nil {
		return nil, err
	}
	if err := json.Unmarshal(newRaw, &na); err != nil {
		return nil, err
	}
	if oa.ID != na.ID {
		return nil, &MismatchError{fmt.Sprintf("experiment id %q vs %q", oa.ID, na.ID)}
	}
	if oa.Quick != na.Quick {
		return nil, &MismatchError{fmt.Sprintf("quick=%v vs quick=%v", oa.Quick, na.Quick)}
	}
	if oa.ConfigHash != na.ConfigHash {
		return nil, &MismatchError{fmt.Sprintf("config_hash %s vs %s", oa.ConfigHash, na.ConfigHash)}
	}

	rep := &CompareReport{ID: oa.ID}
	// Saturation verdicts: informational only. A bottleneck shifting
	// (e.g. mmap_sem -> pmem_bw at some sweep point) is exactly what a
	// perf fix is supposed to do, so it must never gate; the metric and
	// cycle checks below catch any throughput cost. Segments present on
	// only one side are also reported — an attribution report appearing
	// or vanishing is worth a log line.
	if len(oa.Saturation) > 0 || len(na.Saturation) > 0 {
		ov := map[string]string{}
		for _, s := range oa.Saturation {
			ov[s.Segment] = s.Verdict
		}
		nv := map[string]string{}
		for _, s := range na.Saturation {
			nv[s.Segment] = s.Verdict
		}
		for _, seg := range obs.SortedKeys(ov) {
			nw, ok := nv[seg]
			switch {
			case !ok:
				rep.Info = append(rep.Info, fmt.Sprintf("saturation %s: report gone (was %q, informational)", seg, ov[seg]))
			case nw != ov[seg]:
				rep.Info = append(rep.Info, fmt.Sprintf("saturation %s: %q -> %q (informational)", seg, ov[seg], nw))
			}
		}
		for _, seg := range obs.SortedKeys(nv) {
			if _, ok := ov[seg]; !ok {
				rep.Info = append(rep.Info, fmt.Sprintf("saturation %s: new report %q (informational)", seg, nv[seg]))
			}
		}
	}
	// Host speed: informational only. Wall-clock varies with host load,
	// so it reports as a trend line in CI logs, never as a regression.
	if oa.Host != nil && na.Host != nil && oa.Host.EventsPerSec > 0 && na.Host.EventsPerSec > 0 {
		rel := (na.Host.EventsPerSec - oa.Host.EventsPerSec) / oa.Host.EventsPerSec
		rep.Info = append(rep.Info, fmt.Sprintf(
			"host events/sec %.3g -> %.3g (%+.1f%%, informational)",
			oa.Host.EventsPerSec, na.Host.EventsPerSec, 100*rel))
	}
	for _, name := range obs.SortedKeys(oa.Metrics) {
		ov := oa.Metrics[name]
		rep.Checked++
		nv, ok := na.Metrics[name]
		if !ok {
			// A metric the baseline had must not vanish.
			rep.Regressions = append(rep.Regressions, Regression{Name: name + " (missing)", Old: ov, New: 0, RelChange: -1})
			continue
		}
		if ov == 0 {
			continue
		}
		rel := (nv - ov) / ov
		bad := rel < -metricTolerance // throughput-like: shrinking is bad
		if lowerBetter(oa.ID, name) {
			bad = rel > metricTolerance
		}
		if bad {
			rep.Regressions = append(rep.Regressions, Regression{Name: name, Old: ov, New: nv, RelChange: rel})
		}
	}

	// Cycle breakdown: any leaf carrying a meaningful share of the run
	// that got more expensive, plus the attributed total itself.
	if oa.CycleBreakdown != nil && na.CycleBreakdown != nil && oa.CycleBreakdown.Total > 0 {
		ob, nb := oa.CycleBreakdown, na.CycleBreakdown
		rep.Checked++
		if rel := relDelta(ob.Total, nb.Total); rel > cycleTolerance {
			rep.Regressions = append(rep.Regressions, Regression{
				Name: "cycles:total", Old: float64(ob.Total), New: float64(nb.Total), RelChange: rel,
			})
		}
		for _, p := range obs.SortedKeys(ob.Leaves) {
			ol := ob.Leaves[p]
			if float64(ol.Cycles) < cycleMinShare*float64(ob.Total) {
				continue
			}
			rep.Checked++
			nl := nb.Leaves[p]
			if rel := relDelta(ol.Cycles, nl.Cycles); rel > cycleTolerance {
				rep.Regressions = append(rep.Regressions, Regression{
					Name: "cycles:" + p, Old: float64(ol.Cycles), New: float64(nl.Cycles), RelChange: rel,
				})
			}
		}
	}
	return rep, nil
}

func relDelta(old, new uint64) float64 {
	if old == 0 {
		if new == 0 {
			return 0
		}
		return 1
	}
	return (float64(new) - float64(old)) / float64(old)
}
