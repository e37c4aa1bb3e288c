package bench

import (
	"bytes"
	"strings"
	"testing"

	"daxvm/internal/obs"
	"daxvm/internal/obs/span"
	"daxvm/internal/obs/timeline"
)

// TestArtifactSmoke runs one cheap experiment end to end and validates
// the JSON artifact it produces against the daxvm-bench/v5 schema.
func TestArtifactSmoke(t *testing.T) {
	e, ok := ByID("storage")
	if !ok {
		t.Fatal("storage experiment not registered")
	}
	o := obs.New(0)
	tl := timeline.New(o.Reg, o.Cycles, timeline.Config{})
	opts := Options{Quick: true, Obs: o, Timeline: tl, Spans: span.New(3)}
	t.Cleanup(CloseLast)
	r := e.Run(opts)
	if len(r.Metrics) == 0 {
		t.Fatal("experiment produced no metrics")
	}

	snap := o.Reg.Snapshot()
	cycles := o.Cycles.Snapshot()
	a := NewArtifact(r, opts, &snap, &cycles)
	a.Host = &HostTelemetry{WallSeconds: 0.5, Events: 1000, EventsPerSec: 2000}
	var buf bytes.Buffer
	if err := a.WriteArtifact(&buf); err != nil {
		t.Fatal(err)
	}
	if err := ValidateArtifact(buf.Bytes()); err != nil {
		t.Fatalf("artifact failed its own schema: %v\n%s", err, buf.String())
	}

	// The observability hub wired into the experiment's kernel must have
	// seen the corpus build (creates + appends, each a journal txn).
	if len(snap.Counters) == 0 {
		t.Error("snapshot has no counters — Obs was not wired into boot()")
	}
	for _, name := range []string{"ext4.creates", "ext4.appends", "ext4.journal.begins"} {
		if snap.Get(name) == 0 {
			t.Errorf("%s = 0: experiment activity did not reach the registry", name)
		}
	}

	// v2 provenance and the cycle breakdown must make it to disk.
	if a.GitSHA == "" || a.ConfigHash == "" {
		t.Errorf("missing provenance: git_sha=%q config_hash=%q", a.GitSHA, a.ConfigHash)
	}
	if cycles.Total == 0 || len(cycles.Leaves) == 0 {
		t.Error("cycle breakdown empty — engines were not attached to the account in boot()")
	}

	// v3: the experiment's timeline segment must land in the artifact.
	if len(a.Timeline) == 0 {
		t.Fatal("artifact has no timeline section")
	}
	for _, ex := range a.Timeline {
		if ex.Segment != "storage" {
			t.Errorf("foreign segment %q embedded in storage artifact", ex.Segment)
		}
		if len(ex.Intervals) == 0 {
			t.Error("timeline segment has no intervals")
		}
	}

	// v4: the span layer's critical-path rows and exemplar trees must
	// land in the artifact too.
	if len(a.CriticalPath) == 0 {
		t.Fatal("artifact has no critical_path section")
	}
	if len(a.Exemplars) == 0 {
		t.Fatal("artifact has no exemplars section")
	}
	for class, trees := range a.Exemplars {
		if len(trees) == 0 || len(trees) > 3 {
			t.Errorf("class %s kept %d exemplars, want 1..3", class, len(trees))
		}
	}
}

// TestValidateArtifactRejects exercises the validator's failure modes.
func TestValidateArtifactRejects(t *testing.T) {
	body := `"id":"x","title":"t","quick":true,"git_sha":"abc","config_hash":"0011223344556677","metrics":{"a":1},` +
		`"cycle_breakdown":{"total":10,"leaves":{"app":{"cycles":10,"count":1}}},` +
		`"timeline":[{"segment":"x","interval_cycles":64,"intervals":[{"start_cycles":0,"end_cycles":64,"cycles":10}]}],` +
		`"critical_path":[{"class":"fault.minor","count":3,"total_cycles":300,"self_cycles":250,"avg_cycles":100,"p50_cycles":96,"p99_cycles":128},` +
		`{"class":"syscall.read","count":2,"total_cycles":400,"self_cycles":400,"avg_cycles":200,"p50_cycles":192,"p99_cycles":256}],` +
		`"exemplars":{"fault.minor":[{"class":"fault.minor","core":0,"start_cycles":10,"dur_cycles":120,"self_cycles":80,"tree_self_cycles":110,` +
		`"children":[{"class":"fault.alloc","core":0,"start_cycles":20,"dur_cycles":30,"self_cycles":30,"tree_self_cycles":30}]}]},` +
		`"saturation":[{"segment":"x","window_cycles":64,"resources":[{"name":"pmem_bw","utilization":0.5,"mean_queue":0,"score":0.5}],"verdict":"pmem_bw"}],` +
		`"host":{"wall_seconds":0.5,"engine_events":100,"events_per_sec":200}}`
	if err := ValidateArtifact([]byte(`{"schema":"daxvm-bench/v5",` + body)); err != nil {
		t.Fatalf("valid v5 artifact rejected: %v", err)
	}
	head := `{"schema":"daxvm-bench/v5","id":"x","title":"t","quick":true,"git_sha":"abc","config_hash":"00","metrics":{},`
	cases := []struct {
		name, raw, wantErr string
	}{
		{"not-json", `nope`, "not a JSON object"},
		{"wrong-schema", `{"schema":"other/v9","id":"x","title":"t","quick":true,"metrics":{}}`, "schema"},
		{"older-schema", `{"schema":"daxvm-bench/v4",` + body, `schema "daxvm-bench/v4"`},
		{"v1-schema", `{"schema":"daxvm-bench/v1","id":"x","title":"t","quick":true,"metrics":{}}`, `schema "daxvm-bench/v1"`},
		{"missing-schema", `{` + body, `missing required field "schema"`},
		{"missing-title", `{"schema":"daxvm-bench/v5","id":"x","quick":true,"git_sha":"abc","config_hash":"00","metrics":{}}`, `missing required field "title"`},
		{"missing-metrics", `{"schema":"daxvm-bench/v5","id":"x","title":"t","quick":true,"git_sha":"abc","config_hash":"00"}`, `missing required field "metrics"`},
		{"missing-id", `{"schema":"daxvm-bench/v5","title":"t","quick":true,"git_sha":"abc","config_hash":"00","metrics":{}}`, `missing required field "id"`},
		{"empty-id", `{"schema":"daxvm-bench/v5","id":"","title":"t","quick":true,"git_sha":"abc","config_hash":"00","metrics":{}}`, "empty id"},
		{"bad-metrics", `{"schema":"daxvm-bench/v5","id":"x","title":"t","quick":true,"git_sha":"abc","config_hash":"00","metrics":{"a":"NaN"}}`, `field "metrics"`},
		{"bad-quick", `{"schema":"daxvm-bench/v5","id":"x","title":"t","quick":"yes","git_sha":"abc","config_hash":"00","metrics":{}}`, `field "quick"`},
		{"missing-sha", `{"schema":"daxvm-bench/v5","id":"x","title":"t","quick":true,"config_hash":"00","metrics":{}}`, `missing required field "git_sha"`},
		{"empty-sha", `{"schema":"daxvm-bench/v5","id":"x","title":"t","quick":true,"git_sha":"","config_hash":"00","metrics":{}}`, "empty git_sha"},
		{"missing-confhash", `{"schema":"daxvm-bench/v5","id":"x","title":"t","quick":true,"git_sha":"abc","metrics":{}}`, `missing required field "config_hash"`},
		{"empty-confhash", `{"schema":"daxvm-bench/v5","id":"x","title":"t","quick":true,"git_sha":"abc","config_hash":"","metrics":{}}`, "empty config_hash"},
		{"bad-snapshot", head + `"snapshot":42}`, "bad snapshot"},
		{"bad-breakdown", head + `"cycle_breakdown":[]}`, "bad cycle_breakdown"},
		{"bad-timeline", head + `"timeline":42}`, "bad timeline"},
		{"timeline-backwards-interval", head + `"timeline":[{"segment":"x","interval_cycles":64,"intervals":[{"start_cycles":64,"end_cycles":0,"cycles":1}]}]}`, "ends before it starts"},
		{"bad-host", head + `"host":[]}`, "bad host"},
		{"negative-host", head + `"host":{"wall_seconds":-1,"engine_events":1,"events_per_sec":1}}`, "negative host"},
		{"bad-critical-path", head + `"critical_path":42}`, "bad critical_path"},
		{"critical-path-empty-class", head + `"critical_path":[{"class":"","count":1,"total_cycles":1,"self_cycles":1,"avg_cycles":1,"p50_cycles":1,"p99_cycles":1}]}`, "empty class"},
		{"critical-path-unsorted", head + `"critical_path":[{"class":"b","count":1,"total_cycles":1,"self_cycles":1,"avg_cycles":1,"p50_cycles":1,"p99_cycles":1},{"class":"a","count":1,"total_cycles":1,"self_cycles":1,"avg_cycles":1,"p50_cycles":1,"p99_cycles":1}]}`, "not sorted"},
		{"critical-path-zero-count", head + `"critical_path":[{"class":"a","count":0,"total_cycles":1,"self_cycles":1,"avg_cycles":1,"p50_cycles":1,"p99_cycles":1}]}`, "zero count"},
		{"critical-path-self-over-total", head + `"critical_path":[{"class":"a","count":1,"total_cycles":10,"self_cycles":11,"avg_cycles":1,"p50_cycles":1,"p99_cycles":1}]}`, "self exceeds total"},
		{"bad-exemplars", head + `"exemplars":[]}`, "bad exemplars"},
		{"exemplar-self-over-dur", head + `"exemplars":{"a":[{"class":"a","core":0,"start_cycles":0,"dur_cycles":10,"self_cycles":11,"tree_self_cycles":11}]}}`, "exceeds dur"},
		{"exemplar-child-escapes", head + `"exemplars":{"a":[{"class":"a","core":0,"start_cycles":10,"dur_cycles":10,"self_cycles":5,"tree_self_cycles":10,"children":[{"class":"b","core":0,"start_cycles":15,"dur_cycles":10,"self_cycles":5,"tree_self_cycles":5}]}]}}`, "escapes parent"},
		{"exemplars-empty-class-key", head + `"exemplars":{"":[]}}`, "empty class key"},
		{"exemplar-empty-class", head + `"exemplars":{"a":[{"class":"","core":0,"start_cycles":0,"dur_cycles":10,"self_cycles":1,"tree_self_cycles":1}]}}`, "span with empty class"},
		{"exemplar-self-over-tree-self", head + `"exemplars":{"a":[{"class":"a","core":0,"start_cycles":0,"dur_cycles":10,"self_cycles":6,"tree_self_cycles":5}]}}`, "exceeds tree_self"},
		{"bad-saturation", head + `"saturation":{}}`, "bad saturation"},
		{"saturation-empty-segment", head + `"saturation":[{"segment":"","window_cycles":64,"resources":[],"verdict":"pmem_bw"}]}`, "empty segment"},
		{"saturation-empty-verdict", head + `"saturation":[{"segment":"x","window_cycles":64,"resources":[],"verdict":""}]}`, "empty verdict"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			err := ValidateArtifact([]byte(c.raw))
			if err == nil {
				t.Fatal("accepted")
			}
			if !strings.Contains(err.Error(), c.wantErr) {
				t.Fatalf("error %q does not mention %q", err, c.wantErr)
			}
		})
	}
}
