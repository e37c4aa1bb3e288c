package tlb

import (
	"bytes"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"testing"

	"daxvm/internal/mem"
	"daxvm/internal/pt"
)

// A fuzz program is a geometry byte followed by operations, each an
// opcode byte and its arguments; reads past the end yield zeros.
const (
	opInsertSmall     = iota // page u16, pfn u8, flags u8
	opInsertHuge             // region u8, pfn u8, flags u8
	opInsertExisting         // history index u8, pfn u8, flags u8
	opLookup                 // addr
	opInvalidatePage         // addr
	opInvalidateRange        // addr, length u8 (×256 pages)
	opFlushAll               //
	opInsertRun              // page u16, count u8 (+1, ×16 pages)
	opLookupDirty            // addr; a hit sets the dirty bit through the entry pointer
	numOps
)

// geometries are the (small, large) capacities a program's first byte
// selects.
var geometries = [][2]int{{8, 2}, {16, 4}, {DefaultEntries4K, DefaultEntries2M}}

type decoder struct {
	data []byte
	at   int
}

func (d *decoder) done() bool { return d.at >= len(d.data) }

func (d *decoder) byte() byte {
	if d.done() {
		return 0
	}
	d.at++
	return d.data[d.at-1]
}

func (d *decoder) u16() int { return int(d.byte()) | int(d.byte())<<8 }

// keySpace maps decoded numbers to page-aligned keys. Small keys are the
// first 64 pages of each 2 MiB region, so invalidations cross both sizes
// and a range of a few hundred pages covers many keys. Each size has six
// capacities of distinct keys, so programs reach eviction and the trim.
type keySpace struct{ smallKeys, hugeKeys int }

func (k keySpace) small(n int) mem.VirtAddr {
	n %= k.smallKeys
	return mem.VirtAddr(n%64)*mem.PageSize + mem.VirtAddr(n/64)*mem.HugeSize
}

func (k keySpace) huge(n int) mem.VirtAddr { return mem.VirtAddr(n%k.hugeKeys) * mem.HugeSize }

// addr decodes an address: a small key plus an in-page offset, or a
// point inside a huge key's region.
func (k keySpace) addr(d *decoder) mem.VirtAddr {
	if b := d.byte(); b&1 == 0 {
		return k.small(d.u16()) + mem.VirtAddr(b)
	} else {
		return k.huge(int(d.byte())) + mem.VirtAddr(b>>1)*mem.PageSize
	}
}

type inserted struct {
	va   mem.VirtAddr
	huge bool
}

// runProgram replays data on a TLB and on the reference model and fails
// at the first step where lookups, Stats or Len disagree. A final sweep
// looks up every key of the key space.
func runProgram(t *testing.T, data []byte) {
	d := &decoder{data: data}
	g := geometries[int(d.byte())%len(geometries)]
	got, want := NewSized(g[0], g[1]), newRef(g[0], g[1])
	ks := keySpace{smallKeys: 6 * g[0], hugeKeys: 6 * g[1]}
	var history []inserted
	insert := func(va mem.VirtAddr, huge bool, pfn, flags byte) {
		pte := pt.MakeEntry(mem.PFN(pfn), mem.PermRead, flags&2 != 0, huge)
		got.Insert(va, pte, flags&1 != 0, huge)
		want.Insert(va, pte, flags&1 != 0, huge)
		history = append(history, inserted{va, huge})
	}
	lookup := func(step int, va mem.VirtAddr) (*Entry, *Entry) {
		g, gok := got.Lookup(va)
		w, wok := want.Lookup(va)
		if gok != wok {
			t.Fatalf("step %d: Lookup(%#x) hit = %v, reference %v", step, va, gok, wok)
		}
		if gok && (g.VA != w.VA || g.PTE != w.PTE || g.Writable != w.Writable || g.Huge != w.Huge) {
			t.Fatalf("step %d: Lookup(%#x) = %+v, reference %+v", step, va, *g, *w)
		}
		return g, w
	}
	for step := 0; !d.done(); step++ {
		op := int(d.byte()) % numOps
		switch op {
		case opInsertSmall:
			insert(ks.small(d.u16()), false, d.byte(), d.byte())
		case opInsertHuge:
			insert(ks.huge(int(d.byte())), true, d.byte(), d.byte())
		case opInsertExisting:
			i := int(d.byte())
			if len(history) == 0 {
				break
			}
			h := history[i%len(history)]
			insert(h.va, h.huge, d.byte(), d.byte())
		case opLookup:
			lookup(step, ks.addr(d))
		case opInvalidatePage:
			va := ks.addr(d)
			got.InvalidatePage(va)
			want.InvalidatePage(va)
		case opInvalidateRange:
			start := ks.addr(d)
			end := start + mem.VirtAddr(d.byte())*256*mem.PageSize
			got.InvalidateRange(start, end)
			want.InvalidateRange(start, end)
		case opFlushAll:
			got.FlushAll()
			want.FlushAll()
		case opInsertRun:
			first, n := d.u16(), (int(d.byte())+1)*16
			for i := 0; i < n; i++ {
				insert(ks.small(first+i), false, byte(first+i), 1)
			}
		case opLookupDirty:
			if g, w := lookup(step, ks.addr(d)); g != nil {
				g.PTE |= pt.BitDirty
				w.PTE |= pt.BitDirty
			}
		}
		if got.Stats != want.Stats {
			t.Fatalf("step %d (op %d): Stats = %+v, reference %+v", step, op, got.Stats, want.Stats)
		}
		if got.Len() != want.Len() {
			t.Fatalf("step %d (op %d): Len = %d, reference %d", step, op, got.Len(), want.Len())
		}
	}
	for n := 0; n < ks.smallKeys; n++ {
		lookup(-1, ks.small(n))
	}
	for n := 0; n < ks.hugeKeys; n++ {
		lookup(-1, ks.huge(n))
	}
}

// FuzzTLBMatchesReference checks the flat-table TLB against the map
// model it replaced. `go test` replays the committed seed corpus in
// testdata/fuzz; `make fuzz` explores beyond it.
func FuzzTLBMatchesReference(f *testing.F) {
	f.Fuzz(runProgram)
}

// program builds fuzz inputs for the seed corpus.
type program struct{ b []byte }

func newProgram(geometry int) *program { return &program{b: []byte{byte(geometry)}} }

func (p *program) op(op int, args ...int) *program {
	p.b = append(p.b, byte(op))
	for _, a := range args {
		p.b = append(p.b, byte(a))
	}
	return p
}

func (p *program) insertSmall(n, pfn int) *program {
	return p.op(opInsertSmall, n, n>>8, pfn, 1)
}

func (p *program) insertHuge(n, pfn int) *program { return p.op(opInsertHuge, n, pfn, 1) }

func (p *program) lookupSmall(n int) *program { return p.op(opLookup, 0, n, n>>8) }

func (p *program) lookupHuge(n int) *program { return p.op(opLookup, 1, n) }

func (p *program) invalidateSmall(n int) *program { return p.op(opInvalidatePage, 0, n, n>>8) }

func (p *program) flush() *program { return p.op(opFlushAll) }

// seedCorpus is the committed corpus: one program per behaviour the
// flat tables must keep, plus seeded random programs on every geometry.
func seedCorpus() map[string][]byte {
	seeds := map[string][]byte{}

	// Ghost key: p0 is invalidated and re-inserted, so the FIFO holds it
	// twice; the next eviction pops the first copy and deletes the live
	// re-insert, while p1 survives.
	p := newProgram(0)
	for n := 0; n < 8; n++ {
		p.insertSmall(n, n)
	}
	p.invalidateSmall(0).insertSmall(0, 100).insertSmall(8, 8).lookupSmall(0).lookupSmall(1)
	huge := newProgram(0).insertHuge(0, 1).insertHuge(1, 2).op(opInvalidatePage, 1, 0).
		insertHuge(0, 3).insertHuge(2, 4).lookupHuge(0).lookupHuge(1).lookupHuge(2)
	seeds["ghost-key-eviction"] = append(p.b, huge.b[1:]...)

	// Stale slots: after FlushAll the eight stale entries still fill the
	// pool, so the next insert evicts; re-inserting a stale key reuses
	// its slot without a FIFO push, and that key is popped early.
	p = newProgram(0)
	for n := 0; n < 8; n++ {
		p.insertSmall(n, n)
	}
	p.flush().insertSmall(8, 8).lookupSmall(1).insertSmall(1, 101)
	for n := 9; n < 12; n++ {
		p.insertSmall(n, n)
	}
	p.lookupSmall(1).lookupSmall(2).lookupSmall(9)
	seeds["stale-generation-slots"] = p.b

	// Trim: four rounds of fill-and-invalidate, then a fifth fill with
	// half its keys invalidated, leave 40 keys in the FIFO, more than
	// 4 × 8, so FlushAll empties the pool. Without the trim, key 0 would
	// sit in the FIFO twice and the fifth refill would evict it.
	p = newProgram(0)
	for n := 0; n < 40; n++ {
		p.insertSmall(n, n)
		if n%8 == 7 && n < 32 {
			p.op(opInvalidateRange, 0, 0, 0, 1) // region 0: every small key
		}
	}
	for n := 32; n < 36; n++ {
		p.invalidateSmall(n)
	}
	p.flush()
	for n := 0; n < 5; n++ {
		p.insertSmall(n, n)
	}
	p.lookupSmall(0).lookupSmall(36)
	seeds["fifo-trim"] = p.b

	// Default geometry: runs of inserts overflow 1536 entries, and
	// invalidation rounds push the backlog past the trim.
	p = newProgram(2).op(opInsertRun, 0, 0, 127).op(opLookup, 0, 0, 0)
	for round := 0; round < 4; round++ {
		p.op(opInvalidateRange, 0, 0, 0, 255) // 127.5 regions: every key inserted
		p.op(opInsertRun, round*40, 0, 127)
	}
	p.flush().op(opInsertRun, 0, 0, 63).flush()
	seeds["default-geometry-trim"] = p.b

	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 6; i++ {
		b := make([]byte, 400)
		rng.Read(b)
		b[0] = byte(i % len(geometries))
		seeds[fmt.Sprintf("random-%d", i)] = b
	}
	return seeds
}

var writeCorpus = flag.Bool("write-corpus", false, "rewrite the committed FuzzTLBMatchesReference seed corpus")

// TestSeedCorpus pins the committed corpus to seedCorpus, so the files
// `go test` replays are the ones this code describes. Regenerate them
// with: go test ./internal/tlb -run TestSeedCorpus -write-corpus
func TestSeedCorpus(t *testing.T) {
	dir := filepath.Join("testdata", "fuzz", "FuzzTLBMatchesReference")
	for name, data := range seedCorpus() {
		file := filepath.Join(dir, name)
		body := []byte(fmt.Sprintf("go test fuzz v1\n[]byte(%q)\n", data))
		if *writeCorpus {
			if err := os.MkdirAll(dir, 0o755); err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(file, body, 0o644); err != nil {
				t.Fatal(err)
			}
			continue
		}
		have, err := os.ReadFile(file)
		if err != nil {
			t.Fatalf("%v (regenerate with -write-corpus)", err)
		}
		if !bytes.Equal(have, body) {
			t.Errorf("%s differs from seedCorpus (regenerate with -write-corpus)", file)
		}
	}
}
