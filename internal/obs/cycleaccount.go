package obs

import (
	"fmt"
	"io"
	"sort"
	"strings"
	"sync"

	"daxvm/internal/sim"
)

// CycleAccount is the hierarchical cycle-attribution profiler: every cycle
// the simulator charges is booked against a dotted attribution path
// ("app.syscall.write.ntstore", "app.access.fault.minor", ...), per
// simulated core. Each sim engine is wired through its own EngineSink,
// which indexes leaves by the engine's path ids and books the engine's
// charge batches.
// Leaves are exact paths; interior nodes exist implicitly as shared
// prefixes and are materialized by Snapshot views (WriteTable, TotalOf).
//
// Invariant (asserted by bench tests): Total() equals the sum of
// Engine.TotalCharged() over every engine wired to the account — the
// profile cannot silently lose time.
type CycleAccount struct {
	mu sync.Mutex
	// guarded by mu
	leaves map[string]*cycleLeaf
	total  uint64 // guarded by mu
}

type cycleLeaf struct {
	cycles uint64
	count  uint64
	byCore []coreCycles // indexed by core
}

// coreCycles is one leaf's booking on one core. charged marks a core that
// saw a charge, so a core charged only zero cycles still appears in
// CycleLeaf.ByCore.
type coreCycles struct {
	cycles  uint64
	charged bool
}

// NewCycleAccount creates an empty account.
func NewCycleAccount() *CycleAccount {
	return &CycleAccount{leaves: make(map[string]*cycleLeaf)}
}

// Charge books cycles against path on core. Nil-safe. Engines book
// through an EngineSink instead, which skips the path lookup.
func (a *CycleAccount) Charge(core int, path string, cycles uint64) {
	if a == nil {
		return
	}
	a.mu.Lock()
	a.book(a.leaf(path), core, cycles)
	a.mu.Unlock()
}

// leaf returns path's leaf, creating it on first use; the caller holds mu.
func (a *CycleAccount) leaf(path string) *cycleLeaf {
	l := a.leaves[path]
	if l == nil {
		//lint:ignore hotalloc first charge to a unique path only; steady state hits the map
		l = &cycleLeaf{}
		a.leaves[path] = l
	}
	return l
}

// book adds one charge to leaf l; the caller holds mu.
func (a *CycleAccount) book(l *cycleLeaf, core int, cycles uint64) {
	l.cycles += cycles
	l.count++
	for core >= len(l.byCore) {
		//lint:ignore hotalloc per-core slice grows once per new (leaf, core) pair
		l.byCore = append(l.byCore, coreCycles{})
	}
	c := &l.byCore[core]
	c.cycles += cycles
	c.charged = true
	a.total += cycles
}

// EngineSink is one engine's charge consumer into a CycleAccount: it maps
// the engine's dense path ids to leaves through a slice, so a charge
// hashes nothing, and books each batch the engine delivers under one
// lock. Path ids are per engine, so every engine needs its own sink;
// Obs.Attach makes one. The engine delivers before it hands the token to
// another thread and when it stops, so whatever another thread or Run's
// caller reads of the account is complete. A reader on another goroutine
// while an engine runs may miss the charges the engine still buffers.
type EngineSink struct {
	a      *CycleAccount
	leaves []*cycleLeaf // by path id; nil until the id is first booked; guarded by mu
}

// Book books one batch of the engine's charges; paths is the engine's
// path table, which the batch's ids index.
func (s *EngineSink) Book(paths []string, batch []sim.Charge) {
	a := s.a
	a.mu.Lock()
	for len(s.leaves) < len(paths) {
		//lint:ignore hotalloc id table grows once per new path id
		s.leaves = append(s.leaves, nil)
	}
	for _, c := range batch {
		l := s.leaves[c.ID]
		if l == nil {
			l = a.leaf(paths[c.ID])
			s.leaves[c.ID] = l
		}
		a.book(l, c.T.Core, c.Cycles)
	}
	a.mu.Unlock()
}

// Total reports all cycles booked so far.
func (a *CycleAccount) Total() uint64 {
	if a == nil {
		return 0
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.total
}

// Snapshot copies the account state.
func (a *CycleAccount) Snapshot() CycleSnapshot {
	if a == nil {
		return CycleSnapshot{}
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	s := CycleSnapshot{Total: a.total, Leaves: make(map[string]CycleLeaf, len(a.leaves))}
	for path, l := range a.leaves {
		cl := CycleLeaf{Cycles: l.cycles, Count: l.count, ByCore: make(map[int]uint64, len(l.byCore))}
		for c, v := range l.byCore {
			if v.charged {
				cl.ByCore[c] = v.cycles
			}
		}
		s.Leaves[path] = cl
	}
	return s
}

// RootCycles returns the cycles booked under each top-level attribution
// frame: the first dotted component of every leaf path ("app", "setup",
// "daemon", ...). Roots partition the leaves, so the values sum to Total.
// Unlike Snapshot it copies no leaf or per-core state.
func (a *CycleAccount) RootCycles() map[string]uint64 {
	out := make(map[string]uint64, 8)
	if a == nil {
		return out
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	for path, l := range a.leaves {
		root := path
		if i := strings.IndexByte(path, '.'); i >= 0 {
			root = path[:i]
		}
		out[root] += l.cycles
	}
	return out
}

// CycleLeaf is one attribution path's booked cost.
type CycleLeaf struct {
	Cycles uint64         `json:"cycles"`
	Count  uint64         `json:"count"`
	ByCore map[int]uint64 `json:"by_core,omitempty"`
}

// CycleSnapshot is a point-in-time reading of the account; it is what the
// artifact embeds as cycle_breakdown.
type CycleSnapshot struct {
	Total  uint64               `json:"total"`
	Leaves map[string]CycleLeaf `json:"leaves"`
}

// Delta subtracts prev leaf-wise (the measured window's profile), dropping
// leaves that saw no new cycles.
func (s CycleSnapshot) Delta(prev CycleSnapshot) CycleSnapshot {
	d := CycleSnapshot{Leaves: make(map[string]CycleLeaf)}
	if s.Total > prev.Total {
		d.Total = s.Total - prev.Total
	}
	for path, l := range s.Leaves {
		p := prev.Leaves[path]
		if l.Cycles <= p.Cycles {
			continue
		}
		dl := CycleLeaf{Cycles: l.Cycles - p.Cycles}
		if l.Count > p.Count {
			dl.Count = l.Count - p.Count
		}
		for c, v := range l.ByCore {
			if pv := p.ByCore[c]; v > pv {
				if dl.ByCore == nil {
					dl.ByCore = make(map[int]uint64)
				}
				dl.ByCore[c] = v - pv
			}
		}
		d.Leaves[path] = dl
	}
	return d
}

// TotalOf sums every leaf at prefix or nested under it ("journal" covers
// both the "journal" leaf and "journal.commit").
func (s CycleSnapshot) TotalOf(prefix string) uint64 {
	var sum uint64
	for path, l := range s.Leaves {
		if path == prefix || strings.HasPrefix(path, prefix+".") {
			sum += l.Cycles
		}
	}
	return sum
}

// WriteFolded emits the snapshot in folded-stack format — one line per
// leaf, frames separated by semicolons, sample count last — directly
// consumable by flamegraph.pl or speedscope. Lines are sorted for
// deterministic output.
func (s CycleSnapshot) WriteFolded(w io.Writer) error {
	for _, p := range SortedKeys(s.Leaves) {
		if _, err := fmt.Fprintf(w, "%s %d\n", strings.ReplaceAll(p, ".", ";"), s.Leaves[p].Cycles); err != nil {
			return err
		}
	}
	return nil
}

// cycleNode is one materialized row of the hierarchical table.
type cycleNode struct {
	path        string
	total, self uint64
	count       uint64
}

// nodes materializes every prefix of every leaf with its rolled-up total.
func (s CycleSnapshot) nodes() []cycleNode {
	m := map[string]*cycleNode{}
	for path, l := range s.Leaves {
		for i := 0; i <= len(path); i++ {
			if i == len(path) || path[i] == '.' {
				pre := path[:i]
				n := m[pre]
				if n == nil {
					n = &cycleNode{path: pre}
					m[pre] = n
				}
				n.total += l.Cycles
				n.count += l.Count
				if i == len(path) {
					n.self += l.Cycles
				}
			}
		}
	}
	out := make([]cycleNode, 0, len(m))
	for _, n := range m {
		out = append(out, *n)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].total != out[j].total {
			return out[i].total > out[j].total
		}
		return out[i].path < out[j].path
	})
	return out
}

// WriteTable prints the topN nodes by rolled-up total: attributed share,
// total (node + descendants), self (cycles booked exactly at the node),
// and charge count. Nested rows indent by depth so the hierarchy reads.
func (s CycleSnapshot) WriteTable(w io.Writer, topN int) {
	nodes := s.nodes()
	if topN > 0 && len(nodes) > topN {
		nodes = nodes[:topN]
	}
	fmt.Fprintf(w, "  %7s %14s %14s %12s  %s\n", "%TOTAL", "TOTAL", "SELF", "CALLS", "PATH")
	for _, n := range nodes {
		pct := 0.0
		if s.Total > 0 {
			pct = 100 * float64(n.total) / float64(s.Total)
		}
		indent := strings.Repeat("  ", strings.Count(n.path, "."))
		fmt.Fprintf(w, "  %6.2f%% %14d %14d %12d  %s%s\n", pct, n.total, n.self, n.count, indent, n.path)
	}
}
