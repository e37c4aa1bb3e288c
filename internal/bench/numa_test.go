package bench

import "testing"

// TestNumaSupportedPlacement covers the -placement validation surface:
// sweep labels and raw topology policies ("bind:<n>") are accepted, junk
// is not, and raw policies pass through numaPolicy unrewritten.
func TestNumaSupportedPlacement(t *testing.T) {
	for _, ok := range []string{"local", "remote", "interleave", "bind:0", "bind:3"} {
		if !NumaSupportedPlacement(ok) {
			t.Errorf("placement %q rejected", ok)
		}
	}
	for _, bad := range []string{"bind:", "bind:x", "nearest", "bind:-1"} {
		if NumaSupportedPlacement(bad) {
			t.Errorf("placement %q accepted", bad)
		}
	}
	if got := numaPolicy("bind:1", 4); got != "bind:1" {
		t.Errorf("numaPolicy rewrote bind:1 to %q", got)
	}
	if got := numaPolicy("remote", 2); got != "bind:1" {
		t.Errorf("numaPolicy(remote, 2) = %q, want bind:1", got)
	}
}

// TestNumaPlacementShape asserts the topology model's headline claim:
// from node 0, local PMem bandwidth strictly beats interleaved, which
// strictly beats remote, on both the read(2) and paging paths.
func TestNumaPlacementShape(t *testing.T) {
	e, ok := ByID("numa")
	if !ok {
		t.Fatal("numa not registered")
	}
	t.Cleanup(CloseLast)
	res := e.Run(Options{Quick: true})
	for _, path := range []string{"read", "paging"} {
		local := res.Metrics[path+"/local"]
		ileave := res.Metrics[path+"/interleave"]
		remote := res.Metrics[path+"/remote"]
		if local == 0 || ileave == 0 || remote == 0 {
			t.Fatalf("%s: missing metrics: local=%v interleave=%v remote=%v", path, local, ileave, remote)
		}
		if !(local > ileave && ileave > remote) {
			t.Errorf("%s: want local > interleave > remote, got %.1f / %.1f / %.1f", path, local, ileave, remote)
		}
	}
}
