package cpu_test

import (
	"math/rand"
	"testing"

	"daxvm/internal/cpu"
	"daxvm/internal/mem"
	"daxvm/internal/pt"
)

// refLines is the PTE-line cache the fixed set replaced: a map of warm
// lines and a FIFO ring of pteLineCacheSize (192) entries, cleared whole
// by DropPTELines.
type refLines struct {
	warm  map[refKey]bool
	ring  []refKey
	limit int
}

type refKey struct {
	node *pt.Node
	line int
}

func (r *refLines) touch(k refKey) bool {
	if r.warm[k] {
		return true
	}
	if len(r.ring) == r.limit {
		delete(r.warm, r.ring[0])
		r.ring = r.ring[1:]
	}
	r.ring = append(r.ring, k)
	r.warm[k] = true
	return false
}

func (r *refLines) drop() {
	r.warm = map[refKey]bool{}
	r.ring = nil
}

// TestPTELineSetMatchesReference touches lines of several table nodes,
// more distinct lines than the cache holds, with interleaved
// DropPTELines, and checks each touch's hot/cold verdict against the
// map-and-ring model.
func TestPTELineSetMatchesReference(t *testing.T) {
	nodes := make([]*pt.Node, 7)
	for i := range nodes {
		nodes[i] = pt.NewNode(pt.LevelPTE, mem.Loc{Medium: mem.DRAM})
	}
	const linesPerNode = mem.PTEsPerTable / mem.PTEsPerCacheLine // 64: 448 distinct lines
	c := cpu.NewSet(1).Cores[0]
	ref := &refLines{limit: 192}
	ref.drop()
	rng := rand.New(rand.NewSource(7))
	var recent []refKey
	hot, cold := 0, 0
	for i := 0; i < 200_000; i++ {
		var k refKey
		switch r := rng.Intn(1000); {
		case r == 0:
			c.DropPTELines()
			ref.drop()
			continue
		case r < 600 && len(recent) > 0:
			// Revisit a recent line: the working set hovers around
			// the cache size, so verdicts mix hits and misses.
			k = recent[len(recent)-1-rng.Intn(min(len(recent), 256))]
		default:
			k = refKey{nodes[rng.Intn(len(nodes))], rng.Intn(linesPerNode)}
		}
		recent = append(recent, k)
		got, want := c.TouchPTELine(k.node, k.line), ref.touch(k)
		if got != want {
			t.Fatalf("touch %d (node %d, line %d): warm = %v, reference %v", i, k.node.Serial(), k.line, got, want)
		}
		if got {
			hot++
		} else {
			cold++
		}
	}
	if hot < 10_000 || cold < 10_000 {
		t.Fatalf("touches were %d warm, %d cold: the test must exercise both", hot, cold)
	}
}
