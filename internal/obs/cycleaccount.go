package obs

import (
	"fmt"
	"io"
	"sort"
	"strings"

	"daxvm/internal/sim"
)

// CycleAccount is the hierarchical cycle-attribution profiler: every cycle
// the simulator charges is booked against a dotted attribution path
// ("app.syscall.write.ntstore", "app.access.fault.minor", ...), per
// simulated core. Engines keep the record themselves: each of their
// threads charges into its own table by path id (sim.Thread.Rows), and
// the account reads the tables of the engines attached to it (Attach)
// beside its own leaves, which Charge books into. The first read after
// an attached engine stops folds its tables into the leaves and drops
// the engine, so a read walks only the engines still live.
// Leaves are exact paths; interior nodes exist implicitly as shared
// prefixes and are materialized by Snapshot views (WriteTable, TotalOf).
//
// Invariant (asserted by bench tests): Total() equals the sum of
// Engine.TotalCharged() over every engine attached to the account — the
// profile cannot silently lose time.
type CycleAccount struct {
	leaves map[string][]sim.Row // by core; a count > 0 marks a charged core
	live   []*sim.Engine
}

// NewCycleAccount creates an empty account.
func NewCycleAccount() *CycleAccount {
	return &CycleAccount{leaves: make(map[string][]sim.Row)}
}

// Charge books cycles against path on core. Nil-safe.
func (a *CycleAccount) Charge(core int, path string, cycles uint64) {
	if a == nil {
		return
	}
	a.add(path, core, sim.Row{Cycles: cycles, Count: 1})
}

// add books row r onto path's leaf on core.
func (a *CycleAccount) add(path string, core int, r sim.Row) {
	l := a.leaves[path]
	if core >= len(l) {
		//lint:ignore hotalloc per-core slice grows once per new (leaf, core) pair
		l = append(l, make([]sim.Row, core+1-len(l))...)
		a.leaves[path] = l
	}
	l[core].Cycles += r.Cycles
	l[core].Count += r.Count
}

// Attach makes the account read engine e's charge tables. Nil-safe.
func (a *CycleAccount) Attach(e *sim.Engine) {
	if a == nil {
		return
	}
	a.live = append(a.live, e)
}

// each calls fn for every (path, core) row the account holds: one per
// charged core of every leaf, then every charged row of the live
// engines' threads, so a (path, core) can come more than once. A stopped
// engine's rows are also folded into the leaves, once, and the engine is
// dropped.
func (a *CycleAccount) each(fn func(path string, core int, r sim.Row)) {
	for path, l := range a.leaves {
		for core, r := range l {
			if r.Count > 0 {
				fn(path, core, r)
			}
		}
	}
	live := a.live[:0]
	for _, e := range a.live {
		stopped := e.Stopped()
		if !stopped {
			live = append(live, e)
		}
		for _, t := range e.Threads() {
			for id, r := range t.Rows() {
				if r.Count == 0 {
					continue
				}
				fn(e.Path(id), t.Core, r)
				if stopped {
					a.add(e.Path(id), t.Core, r)
				}
			}
		}
	}
	clear(a.live[len(live):])
	a.live = live
}

// Total reports all cycles booked so far.
func (a *CycleAccount) Total() uint64 {
	if a == nil {
		return 0
	}
	var sum uint64
	a.each(func(_ string, _ int, r sim.Row) { sum += r.Cycles })
	return sum
}

// Snapshot copies the account state.
func (a *CycleAccount) Snapshot() CycleSnapshot {
	if a == nil {
		return CycleSnapshot{}
	}
	s := CycleSnapshot{Leaves: make(map[string]CycleLeaf)}
	a.each(func(path string, core int, r sim.Row) {
		l := s.Leaves[path]
		if l.ByCore == nil {
			l.ByCore = make(map[int]uint64)
		}
		l.Cycles += r.Cycles
		l.Count += r.Count
		l.ByCore[core] += r.Cycles
		s.Leaves[path] = l
		s.Total += r.Cycles
	})
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
	a.each(func(path string, _ int, r sim.Row) {
		root, _, _ := strings.Cut(path, ".")
		out[root] += r.Cycles
	})
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
