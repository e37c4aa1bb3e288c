// Command simlint is the simulator's multichecker: it loads the
// packages named by its argument patterns (default ./...) and runs the
// project's custom analyzers plus reduced ports of three stock ones.
//
// Each analyzer applies to the scope where its invariant holds:
//
//	determinism     daxvm/internal/...          (the simulation core)
//	chargeunits     daxvm/internal/..., cmd/... (anywhere costs flow)
//	attrbalance     everywhere outside package sim
//	spanbalance     everywhere outside package span
//	lockdiscipline  everywhere outside package sim
//	detmap          everywhere
//	suppaudit       everywhere (plus a stale-suppression audit after
//	                the full suite has run)
//	shadow, nilness, unusedwrite: everywhere
//	lockorder       whole program (global lock acquisition order,
//	                guarded-by/holds verification across calls)
//	hotalloc        whole program (allocations reachable from hot-path
//	                roots, with per-root traces)
//
// Findings print as path:line:col: message [analyzer]. Exit status is 1
// if any finding was reported, 2 if loading or analysis failed.
//
// Flags:
//
//	-list            print the suite with each analyzer's scope and exit
//	-only a,b        run only the named analyzers
//	-skip a,b        run all but the named analyzers
//	-json            one machine-readable finding per line (suppressed
//	                 findings included, marked "suppressed":true)
//	-lockorder-dot f write the global lock acquisition-order graph to f
//	                 in DOT format
//
// Suppress a finding with a `//lint:ignore <analyzer> reason` comment on
// the offending line or the line above; `all` matches every analyzer
// (except suppaudit, which must be named explicitly). The stale audit
// reports directives that suppress nothing; it is skipped under
// -only/-skip, since a partial suite cannot prove a suppression dead.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"daxvm/tools/simlint/ana"
	"daxvm/tools/simlint/analyzers/attrbalance"
	"daxvm/tools/simlint/analyzers/chargeunits"
	"daxvm/tools/simlint/analyzers/determinism"
	"daxvm/tools/simlint/analyzers/detmap"
	"daxvm/tools/simlint/analyzers/hotalloc"
	"daxvm/tools/simlint/analyzers/lockdiscipline"
	"daxvm/tools/simlint/analyzers/lockorder"
	"daxvm/tools/simlint/analyzers/spanbalance"
	"daxvm/tools/simlint/analyzers/suppaudit"
	"daxvm/tools/simlint/stock"
)

type check struct {
	analyzer *ana.Analyzer
	applies  func(pkgPath string) bool
	scope    string
}

func everywhere(string) bool { return true }

func underAny(prefixes ...string) func(string) bool {
	return func(path string) bool {
		for _, p := range prefixes {
			if strings.HasPrefix(path, p) {
				return true
			}
		}
		return false
	}
}

var suite = []check{
	{determinism.Analyzer, underAny("daxvm/internal/"), "daxvm/internal/..."},
	{chargeunits.Analyzer, underAny("daxvm/internal/", "daxvm/cmd/"), "daxvm/internal/..., daxvm/cmd/..."},
	{attrbalance.Analyzer, everywhere, "everywhere (skips package sim)"},
	{spanbalance.Analyzer, everywhere, "everywhere (skips packages span and sim)"},
	{lockdiscipline.Analyzer, everywhere, "everywhere (skips package sim)"},
	{detmap.Analyzer, everywhere, "everywhere"},
	{suppaudit.Analyzer, everywhere, "everywhere"},
	{stock.Shadow, everywhere, "everywhere"},
	{stock.Nilness, everywhere, "everywhere"},
	{stock.UnusedWrite, everywhere, "everywhere"},
	{lockorder.Analyzer, everywhere, "whole program"},
	{hotalloc.Analyzer, everywhere, "whole program"},
}

type finding struct {
	File       string `json:"path"`
	Line       int    `json:"line"`
	Col        int    `json:"col"`
	Analyzer   string `json:"analyzer"`
	Message    string `json:"message"`
	Suppressed bool   `json:"suppressed"`
}

func main() {
	list := flag.Bool("list", false, "list analyzers with their scopes and exit")
	only := flag.String("only", "", "comma-separated analyzer names to run (default all)")
	skip := flag.String("skip", "", "comma-separated analyzer names to skip")
	jsonOut := flag.Bool("json", false, "emit one JSON finding per line (suppressed findings included)")
	dotPath := flag.String("lockorder-dot", "", "write the lock acquisition-order graph to this file (DOT)")
	flag.Usage = func() {
		fmt.Fprintf(flag.CommandLine.Output(),
			"usage: simlint [-list] [-only a,b] [-skip a,b] [-json] [-lockorder-dot file] [patterns]\n")
		flag.PrintDefaults()
	}
	flag.Parse()

	if *list {
		for _, c := range suite {
			fmt.Printf("%-16s %-40s %s\n", c.analyzer.Name, c.scope, c.analyzer.Doc)
		}
		return
	}

	selected := parseNames(*only)
	skipped := parseNames(*skip)
	run := func(name string) bool {
		if skipped[name] {
			return false
		}
		return len(selected) == 0 || selected[name]
	}
	fullSuite := len(selected) == 0 && len(skipped) == 0

	var names []string
	for _, c := range suite {
		names = append(names, c.analyzer.Name)
	}
	suppaudit.SetKnown(names...)

	if *dotPath != "" {
		f, err := os.Create(*dotPath)
		if err != nil {
			fmt.Fprintf(os.Stderr, "simlint: %v\n", err)
			os.Exit(2)
		}
		defer f.Close()
		lockorder.SetDotOutput(f)
	}

	patterns := flag.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	pkgs, err := ana.Load(".", patterns...)
	if err != nil {
		fmt.Fprintf(os.Stderr, "simlint: %v\n", err)
		os.Exit(2)
	}
	prog := ana.NewProgram(pkgs)
	supp := ana.CollectSuppressions(pkgs...)

	// ranOn records which analyzers covered which package, so the stale
	// audit never flags a suppression its analyzer didn't get to check.
	ranOn := map[string]map[string]bool{}
	noteRan := func(pkgPath, analyzer string) {
		m := ranOn[pkgPath]
		if m == nil {
			m = map[string]bool{}
			ranOn[pkgPath] = m
		}
		m[analyzer] = true
	}

	var findings []finding
	addDiags := func(marked []ana.MarkedDiagnostic) {
		for _, d := range marked {
			pos := prog.Fset.Position(d.Pos)
			findings = append(findings, finding{
				File:       relPath(pos.Filename),
				Line:       pos.Line,
				Col:        pos.Column,
				Analyzer:   d.Analyzer,
				Message:    d.Message,
				Suppressed: d.Suppressed,
			})
		}
	}

	for _, pkg := range pkgs {
		for _, c := range suite {
			if c.analyzer.WholeProgram || !run(c.analyzer.Name) || !c.applies(pkg.PkgPath) {
				continue
			}
			marked, err := ana.RunMarked(c.analyzer, pkg, supp)
			if err != nil {
				fmt.Fprintf(os.Stderr, "simlint: %s: %v\n", pkg.PkgPath, err)
				os.Exit(2)
			}
			noteRan(pkg.PkgPath, c.analyzer.Name)
			addDiags(marked)
		}
	}
	for _, c := range suite {
		if !c.analyzer.WholeProgram || !run(c.analyzer.Name) {
			continue
		}
		marked, err := ana.RunProgramMarked(c.analyzer, prog, supp)
		if err != nil {
			fmt.Fprintf(os.Stderr, "simlint: %v\n", err)
			os.Exit(2)
		}
		for _, pkg := range pkgs {
			noteRan(pkg.PkgPath, c.analyzer.Name)
		}
		addDiags(marked)
	}

	// Stale-suppression audit: only meaningful when the full suite ran.
	if fullSuite {
		known := func(name string) bool { return name == "all" || knownAnalyzer(name) }
		stale := supp.Stale(known, func(pkgPath, analyzer string) bool {
			return ranOn[pkgPath][analyzer]
		})
		addDiags(supp.Mark(stale))
	}

	sort.Slice(findings, func(i, j int) bool {
		a, b := findings[i], findings[j]
		if a.File != b.File {
			return a.File < b.File
		}
		if a.Line != b.Line {
			return a.Line < b.Line
		}
		if a.Col != b.Col {
			return a.Col < b.Col
		}
		return a.Analyzer < b.Analyzer
	})

	unsuppressed := 0
	enc := json.NewEncoder(os.Stdout)
	for _, f := range findings {
		if !f.Suppressed {
			unsuppressed++
		}
		if *jsonOut {
			if err := enc.Encode(f); err != nil {
				fmt.Fprintf(os.Stderr, "simlint: %v\n", err)
				os.Exit(2)
			}
		} else if !f.Suppressed {
			fmt.Printf("%s:%d:%d: %s [%s]\n", f.File, f.Line, f.Col, f.Message, f.Analyzer)
		}
	}
	if unsuppressed > 0 {
		fmt.Fprintf(os.Stderr, "simlint: %d finding(s)\n", unsuppressed)
		os.Exit(1)
	}
}

func parseNames(s string) map[string]bool {
	out := map[string]bool{}
	if s == "" {
		return out
	}
	for _, name := range strings.Split(s, ",") {
		name = strings.TrimSpace(name)
		if !knownAnalyzer(name) {
			fmt.Fprintf(os.Stderr, "simlint: unknown analyzer %q (try -list)\n", name)
			os.Exit(2)
		}
		out[name] = true
	}
	return out
}

func relPath(file string) string {
	wd, err := os.Getwd()
	if err != nil {
		return file
	}
	rel, err := filepath.Rel(wd, file)
	if err != nil || strings.HasPrefix(rel, "..") {
		return file
	}
	return rel
}

func knownAnalyzer(name string) bool {
	for _, c := range suite {
		if c.analyzer.Name == name {
			return true
		}
	}
	return false
}
