// Package core implements DaxVM, the paper's contribution: pre-populated
// per-file page tables (file tables) giving O(1) mmap, a scalable
// ephemeral address-space allocator, asynchronous batched unmapping,
// coarse-grain or zero kernel dirty tracking, and asynchronous block
// pre-zeroing — all layered on the simulated kernel's mm and FS models.
package core

import (
	"encoding/binary"
	"fmt"

	"daxvm/internal/cost"
	"daxvm/internal/fs/alloc"
	"daxvm/internal/fs/vfs"
	"daxvm/internal/mem"
	"daxvm/internal/mm"
	"daxvm/internal/pt"
	"daxvm/internal/sim"
)

// VolatileThresholdDefault: files up to this size keep their tables in
// DRAM only (storage-tax control; paper §IV-A1).
const VolatileThresholdDefault = 32 << 10

// chunk is the file-table state for one 2 MiB span of the file.
type chunk struct {
	// node is the table's own PTE-level node: in DRAM for a volatile
	// table, backed by a PMem block for a persistent one. It is nil for
	// a hole or a huge chunk.
	node *pt.Node
	// shadow is the monitor's DRAM copy of node after migration, or nil.
	// setRun keeps it equal to node slot for slot.
	shadow *pt.Node
	// huge: the chunk's 512 blocks are one aligned run, representable as
	// a PMD leaf entry.
	huge    bool
	hugePFN mem.PFN
}

// setRun stores es in slots lo, lo+1, ... of the chunk's node and of its
// shadow. It is the only entry store to a chunk, so the two nodes cannot
// disagree.
func (c *chunk) setRun(t *sim.Thread, lo int, es []pt.Entry) {
	c.node.SetEntries(t, lo, es)
	if c.shadow != nil {
		c.shadow.SetEntries(t, lo, es)
	}
}

// presentRun returns the first run [lo, hi) of consecutive present
// entries in es at or past from; lo >= len(es) when none is left. A node's
// slot holds a present entry or zero, so its runs are its populated
// slots; on media read back after a crash, other words are skipped.
func presentRun(es []pt.Entry, from int) (lo, hi int) {
	lo = from
	for lo < len(es) && !es[lo].Present() {
		lo++
	}
	hi = lo
	for hi < len(es) && es[hi].Present() {
		hi++
	}
	return lo, hi
}

// entries copies n's 512 slots into the DaxVM's run buffer: a persistent
// node's from media.
func (d *DaxVM) entries(n *pt.Node) []pt.Entry {
	buf := d.runBuf[:]
	for i := range buf {
		buf[i] = n.Entry(i)
	}
	return buf
}

// attached returns the node a mapping splices for the chunk: the DRAM
// shadow after migration, else node.
func (c *chunk) attached() *pt.Node {
	if c.shadow != nil {
		return c.shadow
	}
	return c.node
}

// pages reports the chunk's populated pages.
func (c *chunk) pages() int {
	switch {
	case c.huge:
		return alloc.BlocksPerHuge
	case c.node == nil:
		return 0
	}
	return c.node.Live()
}

// FileTable is DaxVM's pre-populated page-table fragment set for one file.
type FileTable struct {
	Ino        vfs.Ino
	Persistent bool
	Migrated   bool // persistent tables copied to DRAM by the monitor

	chunks []chunk

	// desc is the PMem page holding the on-media descriptor (per-chunk
	// node addresses) of a persistent table, nil until first written.
	// writeDescriptor stores its words; it holds no entries.
	desc *pt.Node

	d *DaxVM
}

// populatedPages sums the table's populated pages.
func (ft *FileTable) populatedPages() uint64 {
	var n uint64
	for i := range ft.chunks {
		n += uint64(ft.chunks[i].pages())
	}
	return n
}

// chunksUnder returns the chunks under DaxVM mapping v, clipped to the
// table's end. Chunk i of the result is attached at v.Start + i*HugeSize
// (a DaxVM mapping starts on a chunk boundary of the file).
func (ft *FileTable) chunksUnder(v *mm.VMA) []chunk {
	c0 := int(v.FileOff / mem.HugeSize)
	c1 := min(c0+int(v.Len()/mem.HugeSize), len(ft.chunks))
	if c0 >= c1 {
		return nil
	}
	return ft.chunks[c0:c1]
}

// nodeBlock returns the PMem block backing a persistent node.
func nodeBlock(n *pt.Node) uint64 { return uint64(n.BackAddr) / mem.PageSize }

// emptyPMemNode returns a file-table node whose entries are PMem block
// blk, with the block's old content dropped. The block may have held file
// data or an older node, and its words are the new node's slots, which
// must start at zero. The drop is not charged: the model charges no
// zeroing of a fresh table page.
func (d *DaxVM) emptyPMemNode(blk uint64) *pt.Node {
	addr := mem.PhysAddr(blk * mem.PageSize)
	d.dev.Discard(addr, mem.PageSize)
	return pt.NewPersistentNode(d.dev, addr)
}

// allocTableNode takes one file-table page on medium and books it in
// Stats: a metaAlloc block for PMem, or a pool frame on the node the
// placement policy picks for DRAM. It and freeTableNode are the only code
// that takes or returns table storage: nodes, shadows and descriptors.
func (d *DaxVM) allocTableNode(t *sim.Thread, medium mem.Medium) *pt.Node {
	if medium == mem.PMem {
		runs := d.metaAlloc.Alloc(t, 1)
		if runs == nil {
			panic("daxvm: out of PMem for file tables")
		}
		d.Stats.PMemTableBytes += mem.PageSize
		return d.emptyPMemNode(runs[0].Start)
	}
	node := d.pickNode(t)
	n := pt.NewFileTableNode(mem.Loc{Medium: mem.DRAM, Node: node})
	n.Frame = d.dram.AllocFrameOn(t, node)
	d.Stats.DRAMTableBytes += mem.PageSize
	return n
}

// freeTableNode returns the storage of a node allocTableNode took. A PMem
// page is discarded first: its host frame goes back at once, and a crash
// finds none of its lines to corrupt.
func (d *DaxVM) freeTableNode(t *sim.Thread, n *pt.Node) {
	if n.Loc.Medium == mem.PMem {
		d.dev.Discard(n.BackAddr, mem.PageSize)
		d.metaAlloc.Free(t, []alloc.Run{{Start: nodeBlock(n), Len: 1}})
		d.Stats.PMemTableBytes -= mem.PageSize
		return
	}
	d.dram.FreeFrame(t, n.Frame)
	n.Frame = pt.NoFrame
	d.Stats.DRAMTableBytes -= mem.PageSize
}

// copyTableNode returns a new node on medium holding src's entries,
// flushed when the medium is PMem: a volatile table's upgrade and the
// monitor's DRAM shadow.
func (d *DaxVM) copyTableNode(t *sim.Thread, src *pt.Node, medium mem.Medium) *pt.Node {
	n := d.allocTableNode(t, medium)
	es := d.entries(src)
	for lo, hi := presentRun(es, 0); lo < len(es); lo, hi = presentRun(es, hi) {
		n.SetEntries(t, lo, es[lo:hi])
	}
	n.FlushEntries(t, 0, mem.PTEsPerTable)
	return n
}

// medium is where the table's own nodes live.
func (ft *FileTable) medium() mem.Medium {
	if ft.Persistent {
		return mem.PMem
	}
	return mem.DRAM
}

// Populate extends the table with freshly allocated extents (the FS
// OnAlloc hook), one run of entries per extent and chunk. Persistent-node
// PTE stores go to media and are flushed in cache-line batches; the
// fence rides on the FS journal/log commit (crash consistency, §IV-A1).
func (ft *FileTable) Populate(t *sim.Thread, ext []vfs.Extent) {
	for _, e := range ext {
		for b := uint64(0); b < e.Len; {
			fileBlock := e.File + b
			ci := int(fileBlock / alloc.BlocksPerHuge)
			idx := int(fileBlock % alloc.BlocksPerHuge)
			k := min(e.Len-b, uint64(alloc.BlocksPerHuge-idx))
			for ci >= len(ft.chunks) {
				ft.chunks = append(ft.chunks, chunk{})
			}
			c := &ft.chunks[ci]
			// Growth after a chunk went huge cannot happen (huge means
			// fully populated), but guard anyway.
			if !c.huge {
				if c.node == nil {
					c.node = ft.d.allocTableNode(t, ft.medium())
					if ft.Persistent {
						ft.writeDescriptor(t)
					}
				}
				run := ft.d.runBuf[:k]
				for i := range run {
					run[i] = pt.MakeEntry(mem.PFN(e.Phys+b+uint64(i)), mem.PermRead|mem.PermWrite, true, false)
				}
				c.setRun(t, idx, run)
				t.ChargeN(cost.PTESetPerPage/4, k) // pre-population batches well
			}
			b += k
		}
		// Batched cache-line flush of the lines this extent touched.
		if ft.Persistent {
			ciFirst := int(e.File / alloc.BlocksPerHuge)
			ciLast := int((e.File + e.Len - 1) / alloc.BlocksPerHuge)
			for ci := ciFirst; ci <= ciLast; ci++ {
				c := &ft.chunks[ci]
				if c.node == nil {
					continue
				}
				lo, hi := 0, mem.PTEsPerTable
				if ci == ciFirst {
					lo = int(e.File % alloc.BlocksPerHuge)
				}
				if ci == ciLast {
					hi = int((e.File+e.Len-1)%alloc.BlocksPerHuge) + 1
				}
				c.node.FlushEntries(t, lo, hi)
			}
		}
	}
	ft.promoteHugeChunks(t)
}

// promoteHugeChunks converts fully-populated, physically-contiguous,
// aligned chunks into PMD huge leaves.
func (ft *FileTable) promoteHugeChunks(t *sim.Thread) {
	for ci := range ft.chunks {
		c := &ft.chunks[ci]
		if c.node == nil || c.node.Live() != alloc.BlocksPerHuge {
			continue
		}
		base := c.node.Entry(0).PFN()
		if !mem.IsAligned(uint64(base), alloc.BlocksPerHuge) {
			continue
		}
		contig := true
		for i := 1; i < alloc.BlocksPerHuge; i++ {
			if c.node.Entry(i).PFN() != base+mem.PFN(i) {
				contig = false
				break
			}
		}
		if !contig {
			continue
		}
		c.huge = true
		c.hugePFN = base
		ft.releaseNode(t, c)
	}
}

// releaseNode frees a chunk's node and shadow (huge promotion, truncate,
// destruction).
func (ft *FileTable) releaseNode(t *sim.Thread, c *chunk) {
	for _, n := range [...]*pt.Node{c.node, c.shadow} {
		if n != nil {
			ft.d.freeTableNode(t, n)
		}
	}
	c.node, c.shadow = nil, nil
	if ft.Persistent {
		ft.writeDescriptor(t)
	}
}

// Clear removes translations for file blocks >= keepBlocks (truncate).
func (ft *FileTable) Clear(t *sim.Thread, keepBlocks uint64) {
	keepChunks := int((keepBlocks + alloc.BlocksPerHuge - 1) / alloc.BlocksPerHuge)
	for ci := len(ft.chunks) - 1; ci >= keepChunks; ci-- {
		c := &ft.chunks[ci]
		c.huge = false
		ft.releaseNode(t, c)
		ft.chunks = ft.chunks[:ci]
	}
	firstDead := int(keepBlocks % alloc.BlocksPerHuge)
	if firstDead != 0 && keepChunks <= len(ft.chunks) {
		c := &ft.chunks[keepChunks-1]
		if c.huge {
			// A PMD leaf cannot map part of a chunk: the kept blocks go
			// back into a node, built as if they were just allocated.
			c.huge = false
			ft.Populate(t, []vfs.Extent{{
				File: uint64(keepChunks-1) * alloc.BlocksPerHuge,
				Phys: uint64(c.hugePFN),
				Len:  uint64(firstDead),
			}})
		} else if c.node != nil {
			es := ft.d.entries(c.node)
			for lo, hi := presentRun(es, firstDead); lo < len(es); lo, hi = presentRun(es, hi) {
				clear(es[lo:hi])
				c.setRun(t, lo, es[lo:hi])
			}
			if ft.Persistent {
				c.node.FlushEntries(t, firstDead, mem.PTEsPerTable)
			}
		}
	}
	if ft.Persistent {
		ft.writeDescriptor(t)
	}
}

// Destroy releases every node (inode eviction for volatile tables, file
// deletion for persistent ones).
func (ft *FileTable) Destroy(t *sim.Thread) {
	for ci := range ft.chunks {
		ft.releaseNode(t, &ft.chunks[ci])
	}
	ft.chunks = nil
	if ft.desc != nil {
		ft.d.freeTableNode(t, ft.desc)
		ft.desc = nil
	}
}

// --- on-media descriptor (persistent tables) --------------------------------

// Descriptor layout (page ft.desc): 8-byte magic+ino, then the chunk
// count, then one 8-byte word per chunk: the physical block of the
// chunk's PTE node, or hugePFN|hugeBit, or 0 for absent.
const (
	descMagic   = uint64(0xDA4F17AB1E000000)
	descHugeBit = uint64(1) << 62
)

func (ft *FileTable) writeDescriptor(t *sim.Thread) {
	if ft.desc == nil {
		ft.desc = ft.d.allocTableNode(t, mem.PMem)
	}
	if len(ft.chunks) > mem.PageSize/8-2 {
		panic("daxvm: descriptor overflow (file > 1 TiB?)")
	}
	buf := ft.d.descBuf[:8*(2+len(ft.chunks))]
	binary.LittleEndian.PutUint64(buf[0:], descMagic|uint64(ft.Ino)&0xFFFFFF)
	binary.LittleEndian.PutUint64(buf[8:], uint64(len(ft.chunks)))
	for i := range ft.chunks {
		c := &ft.chunks[i]
		var w uint64
		switch {
		case c.huge:
			w = descHugeBit | uint64(c.hugePFN)
		case c.node != nil:
			w = nodeBlock(c.node)
		}
		binary.LittleEndian.PutUint64(buf[8*(2+i):], w)
	}
	addr := ft.desc.BackAddr
	ft.d.dev.WriteCached(t, addr, buf)
	ft.d.dev.Flush(t, addr, uint64(len(buf)))
	// Fence rides on the FS journal/log commit.
}

// RecoverFileTable rebuilds a persistent file table from media after a
// crash: the descriptor block gives per-chunk node locations, and each
// node is rebuilt on its block from the present entries read back from
// it. A crash leaves garbage in the lines it corrupted; the rebuild drops
// it with the rest of the block's old content.
func RecoverFileTable(t *sim.Thread, d *DaxVM, ino vfs.Ino, descBlock uint64) (*FileTable, error) {
	dev := d.dev
	addr := mem.PhysAddr(descBlock * mem.PageSize)
	var word [8]byte
	dev.Read(t, addr, word[:])
	if binary.LittleEndian.Uint64(word[:])&^uint64(0xFFFFFF) != descMagic {
		return nil, fmt.Errorf("daxvm: bad file-table descriptor at block %d", descBlock)
	}
	ft := &FileTable{Ino: ino, Persistent: true, desc: pt.NewPersistentNode(dev, addr), d: d}
	dev.Read(t, addr+8, word[:])
	count := int(binary.LittleEndian.Uint64(word[:]))
	if count > mem.PageSize/8-2 {
		return nil, fmt.Errorf("daxvm: corrupt descriptor chunk count %d", count)
	}
	// The node pages are copied out with Load: the block is emptied
	// before setRun stores the present entries back.
	raw := make([]byte, mem.PageSize)
	for i := 0; i < count; i++ {
		dev.Read(t, addr+mem.PhysAddr(8*(2+i)), word[:])
		v := binary.LittleEndian.Uint64(word[:])
		var c chunk
		switch {
		case v&descHugeBit != 0:
			c.huge = true
			c.hugePFN = mem.PFN(v &^ descHugeBit)
		case v != 0:
			dev.Load(mem.PhysAddr(v*mem.PageSize), raw)
			c.node = d.emptyPMemNode(v)
			es := d.runBuf[:]
			for i := range es {
				es[i] = pt.Entry(binary.LittleEndian.Uint64(raw[i*8:]))
			}
			for lo, hi := presentRun(es, 0); lo < len(es); lo, hi = presentRun(es, hi) {
				c.setRun(t, lo, es[lo:hi])
			}
		}
		ft.chunks = append(ft.chunks, c)
	}
	return ft, nil
}
