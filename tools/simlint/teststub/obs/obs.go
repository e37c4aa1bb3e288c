// Package obs is a no-op mirror of daxvm/internal/obs's trace surface
// for analyzer fixtures (see teststub/sim).
package obs

import (
	"cmp"
	"slices"
)

// NameID mirrors obs.NameID.
type NameID uint16

// Tracer mirrors obs.Tracer's emit surface.
type Tracer struct{}

func (tr *Tracer) Intern(typ, tag string) NameID {
	_, _ = typ, tag
	return 0
}

func (tr *Tracer) Emit(name NameID, core int, ts, dur, arg uint64) {
	_, _, _, _, _ = name, core, ts, dur, arg
}

// SortedKeys mirrors the deterministic-iteration helper.
func SortedKeys[K cmp.Ordered, V any](m map[K]V) []K {
	out := make([]K, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	slices.Sort(out)
	return out
}
