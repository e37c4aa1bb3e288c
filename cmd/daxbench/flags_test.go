package main

import (
	"flag"
	"io"
	"reflect"
	"strings"
	"testing"
)

// Flags must be honored wherever they appear, including after experiment
// ids — the usage pattern `daxbench ftcost -quick -metrics-out dir`.
func TestParseInterleavedFlagsAfterPositionals(t *testing.T) {
	fs := flag.NewFlagSet("daxbench", flag.ContinueOnError)
	fs.SetOutput(io.Discard)
	quick := fs.Bool("quick", false, "")
	out := fs.String("metrics-out", "", "")
	n := fs.Int("nodes", 0, "")

	pos, err := parseInterleaved(fs, []string{"ftcost", "-quick", "storage", "-metrics-out", "dir", "-nodes", "4", "numa"})
	if err != nil {
		t.Fatal(err)
	}
	if want := []string{"ftcost", "storage", "numa"}; !reflect.DeepEqual(pos, want) {
		t.Fatalf("positionals = %v, want %v", pos, want)
	}
	if !*quick || *out != "dir" || *n != 4 {
		t.Fatalf("flags not honored: quick=%v metrics-out=%q nodes=%d", *quick, *out, *n)
	}
}

func TestParseInterleavedUnknownFlag(t *testing.T) {
	fs := flag.NewFlagSet("daxbench", flag.ContinueOnError)
	fs.SetOutput(io.Discard)
	if _, err := parseInterleaved(fs, []string{"ftcost", "-no-such-flag"}); err == nil {
		t.Fatal("unknown flag after positional did not error")
	}
}

func TestParseInterleavedNoArgs(t *testing.T) {
	fs := flag.NewFlagSet("daxbench", flag.ContinueOnError)
	fs.SetOutput(io.Discard)
	pos, err := parseInterleaved(fs, nil)
	if err != nil || len(pos) != 0 {
		t.Fatalf("pos=%v err=%v", pos, err)
	}
}

func TestExportFlagsSet(t *testing.T) {
	if got := exportFlagsSet("", "", "", "", ""); len(got) != 0 {
		t.Fatalf("no flags set, got %v", got)
	}
	got := exportFlagsSet("t.json", "", "p.folded", "", "s.json")
	want := []string{"-trace", "-profile-out", "-spans-out"}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("got %v, want %v", got, want)
	}
}

// TestExportConflict pins the exit-2 contract for flag combinations that
// run no experiment: export flags with -compare/-validate or `list` are
// rejected with a usage hint, as is -exemplars without a sink.
func TestExportConflict(t *testing.T) {
	cases := []struct {
		name             string
		compare, valid   bool
		firstArg         string
		export           []string
		exemplarsSet     bool
		exemplars        int
		spansOut, outDir string
		wantSubstr       string // "" means no conflict
	}{
		{name: "plain-run", firstArg: "ftcost", exemplars: 3},
		{name: "run-with-exports", firstArg: "all", export: []string{"-trace"}, exemplars: 3},
		{name: "compare-clean", compare: true, exemplars: 3},
		{name: "validate-clean", valid: true, exemplars: 3},
		{name: "compare-and-validate", compare: true, valid: true, exemplars: 3, wantSubstr: "separate modes"},
		{name: "compare-with-trace", compare: true, export: []string{"-trace"}, exemplars: 3, wantSubstr: "-trace"},
		{name: "validate-with-spans", valid: true, export: []string{"-spans-out"}, exemplars: 3, wantSubstr: "-spans-out"},
		{name: "compare-with-exemplars", compare: true, exemplarsSet: true, exemplars: 5, wantSubstr: "-exemplars"},
		{name: "list-with-metrics", firstArg: "list", export: []string{"-metrics-out"}, exemplars: 3, wantSubstr: "list"},
		{name: "list-with-exemplars", firstArg: "list", exemplarsSet: true, exemplars: 5, wantSubstr: "-exemplars"},
		{name: "exemplars-zero", firstArg: "ftcost", exemplarsSet: true, exemplars: 0, spansOut: "s.json", wantSubstr: ">= 1"},
		{name: "exemplars-no-sink", firstArg: "ftcost", exemplarsSet: true, exemplars: 5, wantSubstr: "no effect"},
		{name: "exemplars-with-spans-out", firstArg: "ftcost", exemplarsSet: true, exemplars: 5, spansOut: "s.json"},
		{name: "exemplars-with-metrics-out", firstArg: "ftcost", exemplarsSet: true, exemplars: 5, outDir: "d"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			msg := exportConflict(c.compare, c.valid, c.firstArg, c.export, c.exemplarsSet, c.exemplars, c.spansOut, c.outDir)
			if c.wantSubstr == "" {
				if msg != "" {
					t.Fatalf("unexpected conflict: %q", msg)
				}
				return
			}
			if !strings.Contains(msg, c.wantSubstr) {
				t.Fatalf("msg %q does not mention %q", msg, c.wantSubstr)
			}
		})
	}
}
