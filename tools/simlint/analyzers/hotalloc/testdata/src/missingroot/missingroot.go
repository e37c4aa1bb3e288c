// Package missingroot is named by two default roots in
// TestMissingDefaultRoot: Engine.Run exists and is checked like any
// root, Engine.Gone does not exist and is reported on the package clause.
package missingroot // want `default hot-path root \(\*daxvm/tools/simlint/analyzers/hotalloc/testdata/src/missingroot\.Engine\)\.Gone is not in package daxvm/tools/simlint/analyzers/hotalloc/testdata/src/missingroot`

// Engine stands in for a type whose hot-path method was renamed.
type Engine struct{ buf []int }

// Run is a present root: its allocation is still flagged.
func (e *Engine) Run(n int) {
	e.buf = append(e.buf, n) // want `hot-path allocation \(append\)`
}
