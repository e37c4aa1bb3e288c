// Package detsync checks that the determinism analyzer's sync ban covers
// non-test files only: the import below is reported, the same import in
// detsync_test.go is not.
package detsync

import "sync" // want `import of sync in simulator code`

var once sync.Once

// Init runs f at most once.
func Init(f func()) { once.Do(f) }
