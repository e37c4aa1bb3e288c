package vfs_test

import (
	"slices"
	"testing"

	"daxvm/internal/fs/vfs"
	"daxvm/internal/sim"
)

// TestForceUnmapAllInRegistrationOrder: ForceUnmapAll calls the mappers
// in the order they were registered, every time. Each callback removes
// itself, as the mm and DaxVM callbacks do. A map-keyed registry would
// call them in a different random order on most trials.
func TestForceUnmapAllInRegistrationOrder(t *testing.T) {
	const n = 8
	for trial := 0; trial < 50; trial++ {
		in := &vfs.Inode{}
		var calls []int
		owners := make([]*int, n)
		for i := range owners {
			owners[i] = new(int)
			*owners[i] = i
			owner := owners[i]
			in.AddMapper(owner, func(*sim.Thread) {
				calls = append(calls, *owner)
				in.RemoveMapper(owner)
			})
		}
		run(func(th *sim.Thread) { vfs.ForceUnmapAll(th, in) })
		if want := []int{0, 1, 2, 3, 4, 5, 6, 7}; !slices.Equal(calls, want) {
			t.Fatalf("trial %d: mappers called in order %v, want %v", trial, calls, want)
		}
		calls = nil
		run(func(th *sim.Thread) { vfs.ForceUnmapAll(th, in) })
		if len(calls) != 0 {
			t.Fatalf("trial %d: %d mappers left after each removed itself", trial, len(calls))
		}
	}
}

// TestRemoveMapperKeepsOrder: removing a mapper leaves the others in
// registration order, a later registration goes last, and removing an
// unknown owner changes nothing.
func TestRemoveMapperKeepsOrder(t *testing.T) {
	in := &vfs.Inode{}
	var calls []string
	add := func(name string) *string {
		owner := &name
		in.AddMapper(owner, func(*sim.Thread) { calls = append(calls, name) })
		return owner
	}
	a, _, c := add("a"), add("b"), add("c")
	in.RemoveMapper(c)
	add("d")
	in.RemoveMapper(a)
	in.RemoveMapper(new(string))
	run(func(th *sim.Thread) { vfs.ForceUnmapAll(th, in) })
	if want := []string{"b", "d"}; !slices.Equal(calls, want) {
		t.Fatalf("calls = %v, want %v", calls, want)
	}
}
