// Package core implements DaxVM, the paper's contribution: pre-populated
// per-file page tables (file tables) giving O(1) mmap, a scalable
// ephemeral address-space allocator, asynchronous batched unmapping,
// coarse-grain or zero kernel dirty tracking, and asynchronous block
// pre-zeroing — all layered on the simulated kernel's mm and FS models.
package core

import (
	"fmt"

	"daxvm/internal/cost"
	"daxvm/internal/fs/alloc"
	"daxvm/internal/fs/vfs"
	"daxvm/internal/mem"
	"daxvm/internal/pt"
	"daxvm/internal/sim"
)

// VolatileThresholdDefault: files up to this size keep their tables in
// DRAM only (storage-tax control; paper §IV-A1).
const VolatileThresholdDefault = 32 << 10

// chunk is the file-table state for one 2 MiB span of the file.
type chunk struct {
	// node is the shared PTE-level node (nil when the chunk is a huge
	// leaf). Volatile chunks have a DRAM node; persistent chunks a
	// PMem-resident node (possibly shadowed by a DRAM copy after
	// migration).
	node *pt.Node
	// volatileNode is the DRAM shadow after migration (or the only node
	// for volatile tables — then node == volatileNode).
	volatileNode *pt.Node
	// huge: the chunk's 512 blocks are one aligned run, representable as
	// a PMD leaf entry.
	huge    bool
	hugePFN mem.PFN
	// pages populated in this chunk.
	pages int
	// nodeBlock is the PMem block backing a persistent node.
	nodeBlock uint64
}

// FileTable is DaxVM's pre-populated page-table fragment set for one file.
type FileTable struct {
	Ino        vfs.Ino
	Persistent bool
	Migrated   bool // persistent tables copied to DRAM by the monitor

	chunks []chunk

	// descBlock is the PMem block holding the on-media descriptor
	// (per-chunk node addresses) for persistent tables.
	descBlock uint64

	populatedPages uint64

	d *DaxVM
}

// attachNode returns the node to splice for chunk i, preferring the DRAM
// shadow after migration.
func (ft *FileTable) attachNode(i int) *pt.Node {
	c := &ft.chunks[i]
	if c.volatileNode != nil {
		return c.volatileNode
	}
	return c.node
}

// Chunks reports the number of 2 MiB spans covered.
func (ft *FileTable) Chunks() int { return len(ft.chunks) }

// PopulatedPages reports populated PTEs.
func (ft *FileTable) PopulatedPages() uint64 { return ft.populatedPages }

// StorageBytes reports PMem consumed by persistent nodes + descriptor.
func (ft *FileTable) StorageBytes() uint64 {
	if !ft.Persistent {
		return 0
	}
	n := uint64(mem.PageSize) // descriptor
	for i := range ft.chunks {
		if ft.chunks[i].node != nil && ft.chunks[i].node.Loc.Medium == mem.PMem {
			n += mem.PageSize
		}
	}
	return n
}

// DRAMBytes reports DRAM consumed by volatile nodes/shadows.
func (ft *FileTable) DRAMBytes() uint64 {
	var n uint64
	for i := range ft.chunks {
		c := &ft.chunks[i]
		if c.volatileNode != nil {
			n += mem.PageSize
		} else if c.node != nil && c.node.Loc.Medium == mem.DRAM {
			n += mem.PageSize
		}
	}
	return n
}

// newNode allocates one file-table node in the right medium: persistent
// nodes live on the PMem node owning their backing block; volatile nodes
// follow the mount's placement policy.
func (ft *FileTable) newNode(t *sim.Thread, persistent bool) (*pt.Node, uint64) {
	n := pt.NewFileTableNode(mem.Loc{Medium: mem.DRAM})
	var blockAddr uint64
	if persistent {
		runs := ft.d.metaAlloc.Alloc(t, 1)
		if runs == nil {
			panic("daxvm: out of PMem for file tables")
		}
		blockAddr = runs[0].Start
		n.BackAddr = mem.PhysAddr(blockAddr * mem.PageSize)
		n.Loc = mem.Loc{Medium: mem.PMem, Node: ft.d.dev.NodeOf(n.BackAddr)}
		n.Backing = ft.d.dev
		ft.d.Stats.PMemTableBytes += mem.PageSize
	} else {
		if ft.d.dram != nil {
			node := ft.d.pickNode(t)
			n.Frame = ft.d.dram.AllocFrameOn(t, node)
			n.Loc.Node = node
		} else {
			t.Charge(cost.TableAlloc)
		}
		ft.d.Stats.DRAMTableBytes += mem.PageSize
	}
	return n, blockAddr
}

// Populate extends the table with freshly allocated extents (the FS
// OnAlloc hook). Persistent-node PTE stores are mirrored to media and
// flushed in cache-line batches; the fence rides on the FS journal/log
// commit (crash consistency, §IV-A1).
func (ft *FileTable) Populate(t *sim.Thread, ext []vfs.Extent) {
	for _, e := range ext {
		for b := uint64(0); b < e.Len; b++ {
			fileBlock := e.File + b
			phys := e.Phys + b
			ci := int(fileBlock / alloc.BlocksPerHuge)
			idx := int(fileBlock % alloc.BlocksPerHuge)
			for ci >= len(ft.chunks) {
				ft.chunks = append(ft.chunks, chunk{})
			}
			c := &ft.chunks[ci]
			if c.node == nil && !c.huge {
				n, blk := ft.newNode(t, ft.Persistent)
				c.node = n
				c.nodeBlock = blk
				if ft.Persistent {
					ft.writeDescriptor(t)
				}
			}
			if c.huge {
				// Growth after a chunk went huge cannot happen (huge
				// means fully populated), but guard anyway.
				continue
			}
			entry := pt.MakeEntry(mem.PFN(phys), mem.PermRead|mem.PermWrite, true, false)
			c.node.SetEntry(t, idx, entry)
			t.Charge(cost.PTESetPerPage / 4) // pre-population batches well
			c.pages++
			ft.populatedPages++
			if ft.Migrated && c.volatileNode != nil {
				c.volatileNode.SetEntry(t, idx, entry)
			}
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
		if c.huge || c.node == nil || c.pages != alloc.BlocksPerHuge {
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

// releaseNode frees a chunk's node(s) after huge promotion.
func (ft *FileTable) releaseNode(t *sim.Thread, c *chunk) {
	if c.node != nil && c.node.Loc.Medium == mem.PMem {
		ft.d.metaAlloc.Free(t, []alloc.Run{{Start: c.nodeBlock, Len: 1}})
		ft.d.Stats.PMemTableBytes -= mem.PageSize
	} else if c.node != nil {
		if ft.d.dram != nil && c.node.Frame != pt.NoFrame {
			ft.d.dram.FreeFrame(t, c.node.Frame)
			c.node.Frame = pt.NoFrame
		}
		ft.d.Stats.DRAMTableBytes -= mem.PageSize
	}
	if c.volatileNode != nil && c.volatileNode != c.node {
		if ft.d.dram != nil && c.volatileNode.Frame != pt.NoFrame {
			ft.d.dram.FreeFrame(t, c.volatileNode.Frame)
			c.volatileNode.Frame = pt.NoFrame
		}
		ft.d.Stats.DRAMTableBytes -= mem.PageSize
	}
	c.node = nil
	c.volatileNode = nil
	if ft.Persistent {
		ft.writeDescriptor(t)
	}
}

// Clear removes translations for file blocks >= keepBlocks (truncate).
func (ft *FileTable) Clear(t *sim.Thread, keepBlocks uint64) {
	keepChunks := int((keepBlocks + alloc.BlocksPerHuge - 1) / alloc.BlocksPerHuge)
	for ci := len(ft.chunks) - 1; ci >= keepChunks; ci-- {
		c := &ft.chunks[ci]
		ft.populatedPages -= uint64(c.pages)
		c.huge = false
		ft.releaseNode(t, c)
		ft.chunks = ft.chunks[:ci]
	}
	if keepChunks > 0 && keepChunks <= len(ft.chunks) {
		c := &ft.chunks[keepChunks-1]
		firstDead := int(keepBlocks % alloc.BlocksPerHuge)
		if firstDead != 0 && c.node != nil {
			for i := firstDead; i < c.node.Len(); i++ {
				if c.node.Entry(i).Present() {
					c.node.SetEntry(t, i, 0)
					c.pages--
					ft.populatedPages--
				}
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
	ft.populatedPages = 0
	if ft.Persistent && ft.descBlock != 0 {
		ft.d.metaAlloc.Free(t, []alloc.Run{{Start: ft.descBlock, Len: 1}})
		ft.d.Stats.PMemTableBytes -= mem.PageSize
		ft.descBlock = 0
	}
}

// --- on-media descriptor (persistent tables) --------------------------------

// Descriptor layout (block ft.descBlock): 8-byte magic+ino, then one
// 8-byte word per chunk: the physical block of the chunk's PTE node, or
// hugePFN|hugeBit, or 0 for absent.
const (
	descMagic   = uint64(0xDA4F17AB1E000000)
	descHugeBit = uint64(1) << 62
)

func (ft *FileTable) writeDescriptor(t *sim.Thread) {
	if ft.descBlock == 0 {
		runs := ft.d.metaAlloc.Alloc(t, 1)
		if runs == nil {
			panic("daxvm: out of PMem for descriptor")
		}
		ft.descBlock = runs[0].Start
		ft.d.Stats.PMemTableBytes += mem.PageSize
	}
	if len(ft.chunks) > mem.PageSize/8-2 {
		panic("daxvm: descriptor overflow (file > 1 TiB?)")
	}
	buf := ft.d.descBuf[:8*(2+len(ft.chunks))]
	putLE(buf[0:], descMagic|uint64(ft.Ino)&0xFFFFFF)
	putLE(buf[8:], uint64(len(ft.chunks)))
	for i := range ft.chunks {
		c := &ft.chunks[i]
		var w uint64
		switch {
		case c.huge:
			w = descHugeBit | uint64(c.hugePFN)
		case c.node != nil:
			w = c.nodeBlock
		}
		putLE(buf[8*(2+i):], w)
	}
	addr := mem.PhysAddr(ft.descBlock * mem.PageSize)
	ft.d.dev.WriteCached(t, addr, buf)
	ft.d.dev.Flush(t, addr, uint64(len(buf)))
	// Fence rides on the FS journal/log commit.
}

func putLE(b []byte, v uint64) {
	for i := 0; i < 8; i++ {
		b[i] = byte(v >> (8 * i))
	}
}

func getLE(b []byte) uint64 {
	var v uint64
	for i := 7; i >= 0; i-- {
		v = v<<8 | uint64(b[i])
	}
	return v
}

// RecoverFileTable rebuilds a persistent file table from media after a
// crash: the descriptor block gives per-chunk node locations; node
// contents are read back from their mirrored PMem blocks.
func RecoverFileTable(t *sim.Thread, d *DaxVM, ino vfs.Ino, descBlock uint64) (*FileTable, error) {
	dev := d.dev
	addr := mem.PhysAddr(descBlock * mem.PageSize)
	var word [8]byte
	dev.Read(t, addr, word[:])
	if getLE(word[:])&^uint64(0xFFFFFF) != descMagic {
		return nil, fmt.Errorf("daxvm: bad file-table descriptor at block %d", descBlock)
	}
	ft := &FileTable{Ino: ino, Persistent: true, descBlock: descBlock, d: d}
	dev.Read(t, addr+8, word[:])
	count := int(getLE(word[:]))
	if count > mem.PageSize/8-2 {
		return nil, fmt.Errorf("daxvm: corrupt descriptor chunk count %d", count)
	}
	// The node pages are copied out with Load: SetEntry below stores to
	// the page being scanned, which voids a slice Bytes returned.
	raw := make([]byte, mem.PageSize)
	for i := 0; i < count; i++ {
		dev.Read(t, addr+mem.PhysAddr(8*(2+i)), word[:])
		v := getLE(word[:])
		if v == 0 {
			ft.chunks = append(ft.chunks, chunk{})
			continue
		}
		var c chunk
		if v&descHugeBit != 0 {
			c.huge = true
			c.hugePFN = mem.PFN(v &^ descHugeBit)
			c.pages = alloc.BlocksPerHuge
		} else {
			backAddr := mem.PhysAddr(v * mem.PageSize)
			n := pt.NewFileTableNode(mem.Loc{Medium: mem.PMem, Node: dev.NodeOf(backAddr)})
			n.Backing = dev
			n.BackAddr = backAddr
			dev.Load(n.BackAddr, raw)
			for idx := 0; idx < mem.PTEsPerTable; idx++ {
				e := pt.Entry(getLE(raw[idx*8:]))
				if e.Present() {
					n.SetEntry(t, idx, e)
					c.pages++
				}
			}
			c.node = n
			c.nodeBlock = v
		}
		ft.populatedPages += uint64(c.pages)
		ft.chunks = append(ft.chunks, c)
	}
	return ft, nil
}
