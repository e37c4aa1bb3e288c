package ana

import "testing"

// TestIfaceEdgeAcrossPackages pins that a call through an interface
// reaches an implementation in a package that imports the interface's
// package. Each package is type-checked against its imports' export
// data, so the implementing package's method signatures name its own
// copy of the interface package's types, not the copy the caller was
// checked with.
func TestIfaceEdgeAcrossPackages(t *testing.T) {
	pkgs, err := Load("testdata", "./src/hook", "./src/hookimpl")
	if err != nil {
		t.Fatal(err)
	}
	g := NewProgram(pkgs).Graph()
	const (
		caller = "daxvm/tools/simlint/ana/testdata/src/hook.Run"
		callee = "(*daxvm/tools/simlint/ana/testdata/src/hookimpl.Recorder).Fire"
	)
	for _, e := range g.Out[caller] {
		if e.Callee == callee && e.Kind == EdgeIface {
			return
		}
	}
	t.Fatalf("no interface edge %s -> %s; callees: %+v", caller, callee, g.Out[caller])
}
