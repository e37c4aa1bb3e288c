package core

import (
	"testing"

	"daxvm/internal/dram"
	"daxvm/internal/fs/alloc"
	"daxvm/internal/fs/vfs"
	"daxvm/internal/mem"
	"daxvm/internal/mm"
	"daxvm/internal/pmem"
	"daxvm/internal/pt"
	"daxvm/internal/sim"
)

// checkChunks checks what each chunk of ft holds: a huge chunk has no
// node, a table's own nodes live in its medium, and a shadow exists only
// on a migrated table, in DRAM, holding its node's entries slot for slot.
func checkChunks(t *testing.T, ft *FileTable) {
	t.Helper()
	for ci := range ft.chunks {
		c := &ft.chunks[ci]
		if c.huge {
			if c.node != nil || c.shadow != nil {
				t.Errorf("ino %d chunk %d: huge chunk keeps a node", ft.Ino, ci)
			}
			continue
		}
		if c.node == nil {
			if c.shadow != nil {
				t.Errorf("ino %d chunk %d: shadow without a node", ft.Ino, ci)
			}
			continue
		}
		if c.node.Loc.Medium != ft.medium() {
			t.Errorf("ino %d chunk %d: node on medium %v, table persistent=%v", ft.Ino, ci, c.node.Loc.Medium, ft.Persistent)
		}
		if c.pages() != c.node.Live() {
			t.Errorf("ino %d chunk %d: pages %d, node holds %d", ft.Ino, ci, c.pages(), c.node.Live())
		}
		if c.shadow == nil {
			continue
		}
		if !ft.Migrated || c.shadow.Loc.Medium != mem.DRAM {
			t.Errorf("ino %d chunk %d: shadow on medium %v, table migrated=%v", ft.Ino, ci, c.shadow.Loc.Medium, ft.Migrated)
		}
		if c.shadow.Live() != c.node.Live() {
			t.Errorf("ino %d chunk %d: shadow holds %d entries, node %d", ft.Ino, ci, c.shadow.Live(), c.node.Live())
		}
		for i := 0; i < mem.PTEsPerTable; i++ {
			if s, n := c.shadow.Entry(i), c.node.Entry(i); s != n {
				t.Errorf("ino %d chunk %d slot %d: shadow %#x, node %#x", ft.Ino, ci, i, uint64(s), uint64(n))
				return
			}
		}
	}
}

// TestClearAfterMigrationTrimsShadow truncates a migrated persistent
// table in the middle of its first chunk. The monitor's DRAM shadow is
// what a mapping attaches, so it must lose the cut entries with the PMem
// node: a fresh daxvm_mmap resolves the kept 100 KiB and nothing past it.
func TestClearAfterMigrationTrimsShadow(t *testing.T) {
	ev := newEnv(t, 256, 1, Config{})
	ev.run(func(th *sim.Thread) {
		// A padding file between appends keeps every chunk fragmented,
		// so no chunk is promoted huge and all three get PMem nodes.
		in := ev.mkFile(th, "f", 4096)
		pad, _ := ev.icache.Create(th, "pad")
		for i := 0; i < 10; i++ {
			ev.fs.Append(th, in, make([]byte, 512<<10))
			ev.fs.Append(th, pad, make([]byte, 4096))
		}
		core := ev.cpus.Cores[0]
		core.Bind(th)
		va, err := ev.proc.Mmap(th, core, in, 0, in.Size, mem.PermRead, FlagNoMsync)
		if err != nil {
			t.Fatalf("Mmap: %v", err)
		}
		ft := ev.d.TableOf(in)
		if !ft.Persistent || len(ft.chunks) != 3 {
			t.Fatalf("table persistent=%v with %d chunks, want a persistent 3-chunk table", ft.Persistent, len(ft.chunks))
		}
		(&Monitor{p: ev.proc}).migrate(th)
		if !ft.Migrated || ft.chunks[0].shadow == nil {
			t.Fatal("monitor did not shadow the table")
		}
		if err := ev.proc.Munmap(th, core, va); err != nil {
			t.Fatalf("Munmap: %v", err)
		}

		const keep = 100 << 10
		if err := ev.fs.Truncate(th, in, keep); err != nil {
			t.Fatalf("Truncate: %v", err)
		}
		checkChunks(t, ft)
		if len(ft.chunks) != 1 || ft.chunks[0].shadow.Live() != keep/mem.PageSize {
			t.Fatalf("after truncate: %d chunks, shadow holds %d entries, want 1 chunk of %d", len(ft.chunks), ft.chunks[0].shadow.Live(), keep/mem.PageSize)
		}

		va, err = ev.proc.Mmap(th, core, in, 0, keep, mem.PermRead, FlagNoMsync)
		if err != nil {
			t.Fatalf("Mmap after truncate: %v", err)
		}
		var want []mem.PFN
		for _, e := range ev.fs.Extents(in) {
			for b := uint64(0); b < e.Len; b++ {
				want = append(want, mem.PFN(e.Phys+b))
			}
		}
		for pg := 0; pg < alloc.BlocksPerHuge; pg++ {
			e, _, _, ok := ev.mm.AS.Lookup(va + mem.VirtAddr(pg*mem.PageSize))
			switch {
			case pg < len(want) && (!ok || e.PFN() != want[pg]):
				t.Errorf("page %d: resolves=%v PFN %d, want PFN %d", pg, ok, e.PFN(), want[pg])
			case pg >= len(want) && ok:
				t.Errorf("page %d past the 100 KiB EOF resolves to freed block %d", pg, e.PFN())
			}
		}
	})
}

// TestTruncateSplitsHugeChunk truncates a file in the middle of a chunk
// promoted to a PMD leaf. The leaf would keep mapping the freed half, so
// the kept blocks go back into a PTE node.
func TestTruncateSplitsHugeChunk(t *testing.T) {
	ev := newEnv(t, 256, 1, Config{})
	ev.run(func(th *sim.Thread) {
		in, _ := ev.icache.Create(th, "big")
		if err := ev.fs.Fallocate(th, in, 0, 4<<20); err != nil {
			t.Fatalf("Fallocate: %v", err)
		}
		ft := ev.d.TableOf(in)
		if !ft.chunks[1].huge {
			t.Fatal("fresh image gave no huge second chunk")
		}
		const keep = 3 << 20
		if err := ev.fs.Truncate(th, in, keep); err != nil {
			t.Fatalf("Truncate: %v", err)
		}
		checkChunks(t, ft)
		c := &ft.chunks[1]
		if c.huge || c.node == nil || c.pages() != alloc.BlocksPerHuge/2 {
			t.Fatalf("cut chunk: huge=%v, %d pages, want a node of %d", c.huge, c.pages(), alloc.BlocksPerHuge/2)
		}
		core := ev.cpus.Cores[0]
		core.Bind(th)
		va, err := ev.proc.Mmap(th, core, in, 0, keep, mem.PermRead, FlagNoMsync)
		if err != nil {
			t.Fatalf("Mmap: %v", err)
		}
		if _, _, _, ok := ev.mm.AS.Lookup(va + keep); ok {
			t.Error("page past EOF in the cut chunk resolves")
		}
		if _, _, _, ok := ev.mm.AS.Lookup(va + keep - mem.PageSize); !ok {
			t.Error("last kept page does not resolve")
		}
	})
}

// fuzzBlocks bounds FuzzFileTable's files: four chunks.
const fuzzBlocks = 4 * alloc.BlocksPerHuge

// attachedPFN returns the PFN a mapping of ft resolves for file block b:
// the huge leaf's, or the attached node's entry.
func attachedPFN(ft *FileTable, b uint64) (mem.PFN, bool) {
	ci := int(b / alloc.BlocksPerHuge)
	if ci >= len(ft.chunks) {
		return 0, false
	}
	c := &ft.chunks[ci]
	idx := int(b % alloc.BlocksPerHuge)
	switch {
	case c.huge:
		return c.hugePFN + mem.PFN(idx), true
	case c.attached() == nil:
		return 0, false
	}
	e := c.attached().Entry(idx)
	return e.PFN(), e.Present()
}

// FuzzFileTable drives one file table through Populate, Clear (as a
// truncate does), the monitor's migration and the volatile-to-persistent
// upgrade, and after every step compares what a mapping would attach for
// each of the first four chunks' blocks against a map from file block to
// PFN. It also checks each chunk's nodes (checkChunks) and that the
// table's nodes are exactly the storage booked in Stats.
//
// Bit 0 of the first byte makes the table persistent. Each step is four
// bytes, b0..b3. b0&3 picks the step:
//
//   - 0 Populate: the free blocks from block (b1 | b2<<8) % 2048 on, at
//     most (b3&63)+1 of them, times 8 if b3&64 is set. Block f maps to
//     PFN f + 4096*(1 + (b0>>2)&3) + b0>>4, so b0 < 16 keeps chunks
//     aligned and contiguous, and a full one is promoted huge.
//   - 1 Clear: keep the first (b1 | b2<<8) % 2049 blocks, destroying the
//     table at 0 (onShrink).
//   - 2 migrate: shadow a persistent table's nodes (once per table).
//   - 3 upgrade: make a volatile table persistent.
//
// A persistent table is finally recovered from its media descriptor and
// must resolve every block the same way.
func FuzzFileTable(f *testing.F) {
	f.Add([]byte{1, 0, 0, 0, 0x7f})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		dev := pmem.New(pmem.Config{Size: 16 << 20})
		defer dev.Release()
		pool := dram.New(64 << 20)
		const metaBlocks = 1024
		meta := alloc.New(1, metaBlocks, true)
		d := New(Config{}, dev, pool, nil, meta, nil)
		in := &vfs.Inode{Ino: 7}
		ft := &FileTable{Ino: in.Ino, Persistent: data[0]&1 != 0, d: d}
		want := map[uint64]mem.PFN{}

		resolves := func(step int, ft *FileTable) {
			t.Helper()
			for b := uint64(0); b < fuzzBlocks; b++ {
				got, ok := attachedPFN(ft, b)
				if w, live := want[b]; ok != live || got != w {
					t.Fatalf("step %d block %d: attach resolves=%v PFN %d, want resolves=%v PFN %d", step, b, ok, got, live, w)
				}
			}
			checkChunks(t, ft)
		}
		check := func(step int) {
			t.Helper()
			resolves(step, ft)
			var dramNodes, pmemNodes uint64
			for ci := range ft.chunks {
				for _, n := range [...]*pt.Node{ft.chunks[ci].node, ft.chunks[ci].shadow} {
					switch {
					case n == nil:
					case n.Loc.Medium == mem.PMem:
						pmemNodes++
					default:
						dramNodes++
					}
				}
			}
			if ft.desc != nil {
				pmemNodes++
			}
			if d.Stats.DRAMTableBytes != dramNodes*mem.PageSize || pool.Used() != dramNodes*mem.PageSize {
				t.Fatalf("step %d: %d DRAM nodes, DRAMTableBytes %d, pool holds %d", step, dramNodes, d.Stats.DRAMTableBytes, pool.Used())
			}
			if d.Stats.PMemTableBytes != pmemNodes*mem.PageSize || meta.FreeBlocks() != metaBlocks-pmemNodes {
				t.Fatalf("step %d: %d PMem pages, PMemTableBytes %d, %d of %d blocks free", step, pmemNodes, d.Stats.PMemTableBytes, meta.FreeBlocks(), metaBlocks)
			}
		}

		e := sim.New()
		e.Go("fuzz", 0, 0, func(th *sim.Thread) {
			steps := data[1:]
			for s := 0; s+4 <= len(steps); s += 4 {
				b0, from := steps[s], uint64(steps[s+1])|uint64(steps[s+2])<<8
				switch b0 & 3 {
				case 0:
					n := uint64(steps[s+3]&63) + 1
					if steps[s+3]&64 != 0 {
						n *= 8
					}
					start := from % fuzzBlocks
					off := 4096*(1+uint64(b0>>2&3)) + uint64(b0>>4)
					ext := vfs.Extent{File: start, Phys: start + off}
					for b := start; b < fuzzBlocks && ext.Len < n; b++ {
						if _, live := want[b]; live {
							break
						}
						want[b] = mem.PFN(b + off)
						ext.Len++
					}
					if ext.Len > 0 {
						ft.Populate(th, []vfs.Extent{ext})
					}
				case 1:
					keep := from % (fuzzBlocks + 1)
					for b := range want {
						if b >= keep {
							delete(want, b)
						}
					}
					ft.Clear(th, keep)
					if keep == 0 {
						ft.Destroy(th)
					}
				case 2:
					if ft.Persistent && !ft.Migrated {
						ft.shadowNodes(th)
					}
				case 3:
					if !ft.Persistent {
						d.upgrade(th, in, ft)
					}
				}
				check(s / 4)
			}
			if !ft.Persistent || ft.desc == nil {
				return
			}
			got, err := RecoverFileTable(th, d, ft.Ino, nodeBlock(ft.desc))
			if err != nil {
				t.Fatalf("recover: %v", err)
			}
			resolves(-1, got)
		})
		e.Run()
	})
}

// populateFixture returns a persistent file table on a bare device and
// allocator, and a function that populates file blocks 0..63 from PFN
// 4096 on: a 64-block extent, one run into one node.
func populateFixture() (ft *FileTable, populate func(th *sim.Thread), release func()) {
	dev := pmem.New(pmem.Config{Size: 16 << 20})
	d := New(Config{}, dev, dram.New(16<<20), nil, alloc.New(1, 1024, true), nil)
	ft = &FileTable{Ino: 7, Persistent: true, d: d}
	ext := []vfs.Extent{{File: 0, Phys: 4096, Len: 64}}
	return ft, func(th *sim.Thread) { ft.Populate(th, ext) }, dev.Release
}

// BenchmarkPopulate measures a warm Populate of a 64-block extent into a
// persistent table: the node and descriptor exist, so each op stores 64
// entries mirrored to PMem and flushes their 8 lines.
func BenchmarkPopulate(b *testing.B) {
	_, populate, release := populateFixture()
	defer release()
	e := sim.New()
	e.Go("bench", 0, 0, func(th *sim.Thread) {
		populate(th)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			populate(th)
		}
	})
	e.Run()
}

// TestPopulateZeroAlloc pins a warm Populate into an existing node of a
// persistent table at zero allocations.
func TestPopulateZeroAlloc(t *testing.T) {
	ft, populate, release := populateFixture()
	defer release()
	var allocs float64
	e := sim.New()
	e.Go("t", 0, 0, func(th *sim.Thread) {
		populate(th)
		allocs = testing.AllocsPerRun(100, func() { populate(th) })
	})
	e.Run()
	if ft.chunks[0].node.Live() != 64 {
		t.Fatalf("node holds %d entries, want 64", ft.chunks[0].node.Live())
	}
	if allocs != 0 {
		t.Fatalf("warm Populate allocates %v times per run, want 0", allocs)
	}
}

// TestReusedTableBlocksRecoverClean builds a persistent table whose one
// node holds all 512 entries, destroys it, and builds a 3-block table on
// the same two PMem blocks. The freed node's page reads zero at once. The
// new node lands on the old node's block and writes only its first 3
// slots: its other 509 slots, which are words of the same page, read 0
// through Entry, and recovery, which reads the whole page, finds only
// the 3 entries.
func TestReusedTableBlocksRecoverClean(t *testing.T) {
	dev := pmem.New(pmem.Config{Size: 16 << 20})
	defer dev.Release()
	const metaBlocks = 2
	d := New(Config{}, dev, dram.New(16<<20), nil, alloc.New(1, metaBlocks, true), nil)
	e := sim.New()
	e.Go("t", 0, 0, func(th *sim.Thread) {
		// Phys 4097 is not 2 MiB-aligned, so the full chunk stays a node.
		old := &FileTable{Ino: 7, Persistent: true, d: d}
		old.Populate(th, []vfs.Extent{{File: 0, Phys: 4097, Len: alloc.BlocksPerHuge}})
		if c := &old.chunks[0]; c.huge || c.node.Live() != alloc.BlocksPerHuge {
			t.Fatalf("old table: huge=%v, want a node of %d entries", c.huge, alloc.BlocksPerHuge)
		}
		oldNode := nodeBlock(old.chunks[0].node)
		old.Destroy(th)
		for i := 0; i < mem.PTEsPerTable; i++ {
			if w := dev.Word(mem.PhysAddr(oldNode*mem.PageSize + 8*uint64(i))); w != 0 {
				t.Fatalf("freed node's block word %d reads %#x, want 0", i, w)
			}
		}

		ft := &FileTable{Ino: 8, Persistent: true, d: d}
		ft.Populate(th, []vfs.Extent{{File: 0, Phys: 8192, Len: 3}})
		if got := nodeBlock(ft.chunks[0].node); got != oldNode {
			t.Fatalf("new node on block %d, old node was on %d: the case tests nothing", got, oldNode)
		}
		for i, n := 3, ft.chunks[0].node; i < mem.PTEsPerTable; i++ {
			if e := n.Entry(i); e != 0 {
				t.Fatalf("new node's slot %d reads %#x, want 0", i, uint64(e))
			}
		}

		got, err := RecoverFileTable(th, d, ft.Ino, nodeBlock(ft.desc))
		if err != nil {
			t.Fatalf("recover: %v", err)
		}
		extra := 0
		for b := uint64(0); b < alloc.BlocksPerHuge; b++ {
			pfn, ok := attachedPFN(got, b)
			switch {
			case b < 3 && (!ok || pfn != mem.PFN(8192+b)):
				t.Errorf("block %d: recovered resolves=%v PFN %d, want PFN %d", b, ok, pfn, 8192+b)
			case b >= 3 && ok:
				extra++
			}
		}
		if extra > 0 {
			t.Errorf("recovered table resolves %d blocks the file never had", extra)
		}
		checkChunks(t, got)
	})
	e.Run()
}

// TestTableNodeOnUsedDataBlockStartsEmpty gives a persistent table the
// two PMem blocks of an allocator that does not vouch for them, after
// they held file data whose every word has the present bit. The node's
// slots are the block's words, so the ones the table never populated
// must read 0, the node must count only its own entries, and recovery
// must resolve only the file's blocks.
func TestTableNodeOnUsedDataBlockStartsEmpty(t *testing.T) {
	dev := pmem.New(pmem.Config{Size: 16 << 20})
	defer dev.Release()
	d := New(Config{}, dev, dram.New(16<<20), nil, alloc.New(1, 2, false), nil)
	e := sim.New()
	e.Go("t", 0, 0, func(th *sim.Thread) {
		data := make([]byte, mem.PageSize)
		for i := range data {
			data[i] = 0xFF
		}
		dev.WriteNT(th, mem.PageSize, data)
		dev.WriteNT(th, 2*mem.PageSize, data)
		ft := &FileTable{Ino: 9, Persistent: true, d: d}
		ft.Populate(th, []vfs.Extent{{File: 0, Phys: 8192, Len: 3}})
		n := ft.chunks[0].node
		if n.Live() != 3 {
			t.Errorf("node counts %d entries, want 3", n.Live())
		}
		for i := 3; i < mem.PTEsPerTable; i++ {
			if e := n.Entry(i); e != 0 {
				t.Fatalf("slot %d reads %#x left by file data, want 0", i, uint64(e))
			}
		}
		got, err := RecoverFileTable(th, d, ft.Ino, nodeBlock(ft.desc))
		if err != nil {
			t.Fatalf("recover: %v", err)
		}
		for b := uint64(0); b < alloc.BlocksPerHuge; b++ {
			pfn, ok := attachedPFN(got, b)
			if want := b < 3; ok != want || ok && pfn != mem.PFN(8192+b) {
				t.Fatalf("block %d: recovered resolves=%v PFN %d, want resolves=%v PFN %d", b, ok, pfn, want, 8192+b)
			}
		}
		checkChunks(t, got)
	})
	e.Run()
}

// TestChunksUnderClipsToMappingAndTable: the chunk walk shared by attach,
// the invalidation counts and reattach yields exactly the chunks under
// the mapping, cut at the table's end.
func TestChunksUnderClipsToMappingAndTable(t *testing.T) {
	ft := &FileTable{chunks: make([]chunk, 4)}
	for _, tc := range []struct {
		off, n uint64 // mapping start and length, in chunks
		lo, hi int    // expected chunks [lo, hi)
	}{
		{0, 2, 0, 2},
		{1, 1, 1, 2},
		{2, 4, 2, 4}, // past the table's end
		{4, 1, 0, 0},
		{6, 2, 0, 0},
	} {
		v := &mm.VMA{Start: 1 << 40, End: 1<<40 + mem.VirtAddr(tc.n*mem.HugeSize), FileOff: tc.off * mem.HugeSize}
		cs := ft.chunksUnder(v)
		if len(cs) != tc.hi-tc.lo || len(cs) > 0 && &cs[0] != &ft.chunks[tc.lo] {
			t.Errorf("mapping of chunks [%d, %d): got %d chunks, want chunks [%d, %d)", tc.off, tc.off+tc.n, len(cs), tc.lo, tc.hi)
		}
	}
}

// TestSetTableKeepsOnePlace: an inode's table lives in exactly one place
// for its medium, moves when it turns persistent, and nil drops it.
func TestSetTableKeepsOnePlace(t *testing.T) {
	d := &DaxVM{tables: map[vfs.Ino]*FileTable{}}
	in := &vfs.Inode{Ino: 7}
	ft := &FileTable{Ino: 7, d: d}
	d.setTable(in, ft)
	if d.table(in) != ft || in.FileTable != ft || len(d.tables) != 0 {
		t.Fatalf("volatile table: table %p, in.FileTable %v, %d persistent", d.table(in), in.FileTable, len(d.tables))
	}
	ft.Persistent = true
	d.setTable(in, ft)
	if d.table(in) != ft || in.FileTable != nil || d.tables[7] != ft {
		t.Fatalf("persistent table: table %p, in.FileTable %v, tables %v", d.table(in), in.FileTable, d.tables)
	}
	d.setTable(in, nil)
	if d.table(in) != nil || in.FileTable != nil || len(d.tables) != 0 {
		t.Fatalf("dropped table: table %p, in.FileTable %v, %d persistent", d.table(in), in.FileTable, len(d.tables))
	}
}
