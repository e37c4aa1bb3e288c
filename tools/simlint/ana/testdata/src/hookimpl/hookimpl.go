// Package hookimpl implements hook.Hook.
package hookimpl

import "daxvm/tools/simlint/ana/testdata/src/hook"

// Recorder keeps every event it sees.
type Recorder struct{ seen []*hook.Event }

// Fire implements hook.Hook.
func (r *Recorder) Fire(e *hook.Event) {
	r.seen = append(r.seen, e)
}

var _ hook.Hook = (*Recorder)(nil)
