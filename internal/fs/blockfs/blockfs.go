// Package blockfs is the block-mapped file core the ext4-DAX and NOVA
// models share: the namespace (directory and inode tables), each file's
// extent map grown densely from allocator runs, the zero-or-skip policy
// for new blocks, byte-range media I/O through the extent map, the
// truncate split, and block release through the DaxVM OnFree hook.
//
// A model embeds *Core and keeps only its own policy: how metadata
// becomes durable (ext4's journal, NOVA's per-inode log), which paths
// zero new blocks, and what lookups and inode loads cost. The model
// sequences the core's helpers around its own metadata work, so every
// charge and lock acquisition happens where the model puts it.
package blockfs

import (
	"fmt"

	"daxvm/internal/cost"
	"daxvm/internal/fs/alloc"
	"daxvm/internal/fs/vfs"
	"daxvm/internal/mem"
	"daxvm/internal/pmem"
	"daxvm/internal/sim"
)

// labelExtentLookup attributes an extent-map search.
var labelExtentLookup = sim.NewLabel("extent_lookup")

// Inode is the on-media per-file state, kept in vfs.Inode.Priv.
type Inode struct {
	ino  vfs.Ino
	size uint64
	// extents is sorted by File and contiguous from block 0: files grow
	// densely at the tail.
	extents []vfs.Extent
	// allocatedBlocks is the number of blocks the extents cover.
	allocatedBlocks uint64
	// Mu is i_rwsem (only the write side is modeled).
	Mu *sim.Mutex
}

// Of returns the core state behind a VFS inode.
func Of(in *vfs.Inode) *Inode { return in.Priv.(*Inode) }

// Size reports the on-media file size in bytes.
func (fi *Inode) Size() uint64 { return fi.size }

// ExtentCount reports how many extents map the file.
func (fi *Inode) ExtentCount() int { return len(fi.extents) }

// ZeroStats counts what the zero-or-skip policy did with new blocks.
type ZeroStats struct {
	ZeroedBlocks uint64
	SkippedZero  uint64
}

// Core is one mounted block-mapped file system's shared state.
type Core struct {
	dev   *pmem.Device
	alloc *alloc.Allocator
	hooks *vfs.Hooks
	zero  *ZeroStats

	trustZeroed bool
	agingMode   bool

	dir     map[string]vfs.Ino
	inodes  map[vfs.Ino]*Inode
	nextIno vfs.Ino
	dirLock sim.SpinLock
}

// New builds the core over a device and its data-block allocator; the
// zero-or-skip policy counts into zs (the model's stats).
func New(dev *pmem.Device, a *alloc.Allocator, hooks *vfs.Hooks, trustZeroed bool, zs *ZeroStats) *Core {
	return &Core{
		dev:         dev,
		alloc:       a,
		hooks:       hooks,
		zero:        zs,
		trustZeroed: trustZeroed,
		dir:         make(map[string]vfs.Ino),
		inodes:      make(map[vfs.Ino]*Inode),
		nextIno:     2, // 1 is reserved, like the root inode
	}
}

// Device implements vfs.FS.
func (c *Core) Device() *pmem.Device { return c.dev }

// Allocator exposes the data-block allocator (DaxVM metadata, the
// pre-zero daemon, aging).
func (c *Core) Allocator() *alloc.Allocator { return c.alloc }

// SetHooks installs (or replaces) the DaxVM extension hooks. DaxVM's
// manager needs the allocator at construction, so hook installation is
// necessarily a second step.
func (c *Core) SetHooks(h *vfs.Hooks) { c.hooks = h }

// SetAgingMode toggles the fast-setup path used while aging the image:
// layout changes are real, data writes and zeroing are skipped (and the
// touched blocks are marked non-zeroed).
func (c *Core) SetAgingMode(on bool) { c.agingMode = on }

// SetTrustZeroed enables/disables the pre-zeroing extension: the
// allocator's zeroed tracking lets new blocks skip redundant zeroing.
func (c *Core) SetTrustZeroed(on bool) { c.trustZeroed = on }

// FreeSpace implements vfs.FS.
func (c *Core) FreeSpace() uint64 { return c.alloc.FreeBlocks() * mem.PageSize }

// FreeExtentCount implements vfs.FS.
func (c *Core) FreeExtentCount() int { return c.alloc.FreeExtentCount() }

// --- namespace ---------------------------------------------------------------

// NewFile links a new empty file at path under the directory lock.
func (c *Core) NewFile(t *sim.Thread, path string) (*vfs.Inode, error) {
	c.dirLock.Lock(t, cost.SpinLockAcquire)
	if _, exists := c.dir[path]; exists {
		c.dirLock.Unlock(t, cost.SpinLockRelease)
		return nil, vfs.ErrExists
	}
	ino := c.nextIno
	c.nextIno++
	c.dir[path] = ino
	c.dirLock.Unlock(t, cost.SpinLockRelease)
	fi := &Inode{ino: ino, Mu: sim.NewMutex(cost.SchedWakeup)}
	c.inodes[ino] = fi
	return c.vfsInode(fi, path), nil
}

// RemoveEntry drops path's directory entry; the inode lives on until
// Reclaim.
func (c *Core) RemoveEntry(t *sim.Thread, path string) error {
	c.dirLock.Lock(t, cost.SpinLockAcquire)
	if _, ok := c.dir[path]; !ok {
		c.dirLock.Unlock(t, cost.SpinLockRelease)
		return vfs.ErrNotFound
	}
	delete(c.dir, path)
	c.dirLock.Unlock(t, cost.SpinLockRelease)
	return nil
}

// Lookup resolves path without charging (the model charges its walk).
func (c *Core) Lookup(path string) (vfs.Ino, error) {
	ino, ok := c.dir[path]
	if !ok {
		return 0, vfs.ErrNotFound
	}
	return ino, nil
}

// Load materializes a fresh VFS inode for ino without charging (the
// model charges the media reads).
func (c *Core) Load(ino vfs.Ino) (*vfs.Inode, error) {
	fi, ok := c.inodes[ino]
	if !ok {
		return nil, vfs.ErrNotFound
	}
	return c.vfsInode(fi, ""), nil
}

func (c *Core) vfsInode(fi *Inode, path string) *vfs.Inode {
	return &vfs.Inode{
		Ino:  fi.ino,
		Path: path,
		Size: fi.size,
		Priv: fi,
	}
}

// --- extent map --------------------------------------------------------------

// Extents implements vfs.FS.
func (c *Core) Extents(in *vfs.Inode) []vfs.Extent {
	fi := Of(in)
	out := make([]vfs.Extent, len(fi.extents))
	copy(out, fi.extents)
	return out
}

// BlockOf implements vfs.FS.
func (c *Core) BlockOf(t *sim.Thread, in *vfs.Inode, fileBlock uint64) (uint64, bool) {
	t.ChargeAs(labelExtentLookup, cost.ExtentLookup)
	fi := Of(in)
	i := fi.find(fileBlock)
	if i == len(fi.extents) || fi.extents[i].File > fileBlock {
		return 0, false
	}
	e := fi.extents[i]
	return e.Phys + (fileBlock - e.File), true
}

// find returns the index of the first extent ending past fileBlock. It is
// a manual binary search: sort.Search's closure would allocate on every
// fault-path lookup.
func (fi *Inode) find(fileBlock uint64) int {
	i, j := 0, len(fi.extents)
	for i < j {
		h := int(uint(i+j) >> 1)
		if fi.extents[h].End() > fileBlock {
			j = h
		} else {
			i = h + 1
		}
	}
	return i
}

// physRun translates byte offset -> (physical byte address, contiguous
// bytes remaining in that extent); a zero run is a hole.
func (fi *Inode) physRun(off uint64) (uint64, uint64) {
	fb := off / mem.PageSize
	i := fi.find(fb)
	if i == len(fi.extents) || fb < fi.extents[i].File {
		return 0, 0
	}
	e := fi.extents[i]
	inExt := off - e.File*mem.PageSize
	return e.Phys*mem.PageSize + inExt, e.Len*mem.PageSize - inExt
}

// Reserve asks the allocator for the runs that grow in to cover blocks
// [0, blocks). It returns no runs and no error when in already covers
// them.
func (c *Core) Reserve(t *sim.Thread, in *vfs.Inode, blocks uint64) ([]alloc.Run, error) {
	fi := Of(in)
	if blocks <= fi.allocatedBlocks {
		return nil, nil
	}
	runs := c.alloc.Alloc(t, blocks-fi.allocatedBlocks)
	if runs == nil {
		return nil, vfs.ErrNoSpace
	}
	return runs, nil
}

// Map appends reserved runs to in's extent map and returns the new
// extents. With zero set, each run is zeroed unless the allocator vouches
// for it and the pre-zeroing extension is on; without it the caller's
// payload initializes the blocks. Aging mode skips the zeroing.
func (c *Core) Map(t *sim.Thread, in *vfs.Inode, runs []alloc.Run, zero bool) []vfs.Extent {
	fi := Of(in)
	newExt := make([]vfs.Extent, 0, len(runs))
	fb := fi.allocatedBlocks
	for _, r := range runs {
		if zero && !c.agingMode {
			if r.Zeroed && c.trustZeroed {
				c.zero.SkippedZero += r.Len
			} else {
				c.dev.Zero(t, mem.PhysAddr(r.Start*mem.PageSize), r.Len*mem.PageSize)
				c.zero.ZeroedBlocks += r.Len
			}
		}
		newExt = append(newExt, vfs.Extent{File: fb, Phys: r.Start, Len: r.Len})
		fb += r.Len
	}
	fi.extents = append(fi.extents, newExt...)
	fi.allocatedBlocks = fb
	return newExt
}

// Allocated runs the OnAlloc hook for newly mapped extents (the
// file-table population point). The model calls it once the mapping is
// durable by its own rules.
func (c *Core) Allocated(t *sim.Thread, in *vfs.Inode, ext []vfs.Extent) {
	if c.hooks != nil && c.hooks.OnAlloc != nil {
		c.hooks.OnAlloc(t, in, ext)
	}
}

// --- data path ---------------------------------------------------------------

// AppendData writes data at EOF (skipped while aging) and grows the size
// over it. The caller holds fi.Mu and has reserved and mapped the blocks.
func (c *Core) AppendData(t *sim.Thread, in *vfs.Inode, data []byte) {
	fi := Of(in)
	if !c.agingMode {
		c.write(t, fi, fi.size, data)
	}
	c.Extend(in, fi.size+uint64(len(data)))
}

// Overwrite writes data at off within the allocated blocks (no
// allocation), reporting whether the file grew.
func (c *Core) Overwrite(t *sim.Thread, in *vfs.Inode, off uint64, data []byte) (bool, error) {
	fi := Of(in)
	if off+uint64(len(data)) > fi.allocatedBlocks*mem.PageSize {
		return false, vfs.ErrBadOffset
	}
	c.write(t, fi, off, data)
	return c.Extend(in, off+uint64(len(data))), nil
}

// Extend raises the file size to end if that grows it, reporting whether
// it did.
func (c *Core) Extend(in *vfs.Inode, end uint64) bool {
	fi := Of(in)
	if end <= fi.size {
		return false
	}
	fi.size = end
	in.Size = end
	return true
}

// ReadAt implements vfs.FS.
func (c *Core) ReadAt(t *sim.Thread, in *vfs.Inode, off uint64, buf []byte) (uint64, error) {
	fi := Of(in)
	if off >= fi.size {
		return 0, vfs.ErrBadOffset
	}
	n := uint64(len(buf))
	if off+n > fi.size {
		n = fi.size - off
	}
	buf = buf[:n]
	if mapped := fi.allocatedBlocks * mem.PageSize; off+n > mapped {
		// Past the last block is a hole (a growing truncate sets the
		// size without allocating): it reads as zeros.
		hole := off + n - max(off, mapped)
		clear(buf[n-hole:])
		buf = buf[:n-hole]
	}
	for pos := off; len(buf) > 0; {
		phys, run := fi.physRun(pos)
		if run == 0 {
			panic(fmt.Sprintf("blockfs: read hole at offset %d of inode %d", pos, fi.ino))
		}
		if run > uint64(len(buf)) {
			run = uint64(len(buf))
		}
		c.dev.Read(t, mem.PhysAddr(phys), buf[:run])
		buf = buf[run:]
		pos += run
	}
	return n, nil
}

// write routes a byte range through the extent map with nt-stores and
// fences once.
func (c *Core) write(t *sim.Thread, fi *Inode, off uint64, data []byte) {
	for len(data) > 0 {
		phys, run := fi.physRun(off)
		if run == 0 {
			panic(fmt.Sprintf("blockfs: write hole at offset %d of inode %d", off, fi.ino))
		}
		if run > uint64(len(data)) {
			run = uint64(len(data))
		}
		c.dev.WriteNT(t, mem.PhysAddr(phys), data[:run])
		data = data[run:]
		off += run
	}
	c.dev.Fence(t)
}

// --- truncate and release ----------------------------------------------------

// Cut shrinks in to size: it forces deferred unmappings, zeroes the tail
// of a partially kept last block (so bytes past EOF read zero if the file
// grows again), and splits the extent map into kept and freed runs. It
// reports false, only setting the size, when size does not shrink the
// file. The caller holds fi.Mu, makes the cut durable, then calls
// Trimmed with the freed runs.
func (c *Core) Cut(t *sim.Thread, in *vfs.Inode, size uint64) ([]alloc.Run, bool) {
	fi := Of(in)
	if size >= fi.size {
		c.Extend(in, size)
		return nil, false
	}
	if c.hooks != nil && c.hooks.OnTruncate != nil {
		c.hooks.OnTruncate(t, in)
	}
	vfs.ForceUnmapAll(t, in)
	keep := vfs.BytesToBlocks(size)
	if keep > fi.allocatedBlocks {
		// Sizes set by a growing truncate are not backed by blocks.
		keep = fi.allocatedBlocks
	}
	if end := keep * mem.PageSize; size < end {
		phys, _ := fi.physRun(size)
		c.dev.Zero(t, mem.PhysAddr(phys), end-size)
	}
	var freed []alloc.Run
	var kept []vfs.Extent
	for _, e := range fi.extents {
		switch {
		case e.End() <= keep:
			kept = append(kept, e)
		case e.File >= keep:
			freed = append(freed, alloc.Run{Start: e.Phys, Len: e.Len})
		default:
			cut := keep - e.File
			kept = append(kept, vfs.Extent{File: e.File, Phys: e.Phys, Len: cut})
			freed = append(freed, alloc.Run{Start: e.Phys + cut, Len: e.Len - cut})
		}
	}
	fi.extents = kept
	fi.allocatedBlocks = keep
	fi.size = size
	in.Size = size
	return freed, true
}

// Trimmed finishes a Cut: file-table coverage shrinks to the kept blocks
// (OnShrink), then the freed runs are released.
func (c *Core) Trimmed(t *sim.Thread, in *vfs.Inode, freed []alloc.Run) {
	if c.hooks != nil && c.hooks.OnShrink != nil {
		c.hooks.OnShrink(t, in, Of(in).allocatedBlocks)
	}
	c.Release(t, freed)
}

// Reclaim frees an unlinked inode once its last reference is gone: file
// tables shrink to nothing (OnShrink), the inode is forgotten so a later
// LoadInode fails, and its blocks are returned for the caller to make the
// drop durable and Release. It returns nothing for a live inode.
func (c *Core) Reclaim(t *sim.Thread, in *vfs.Inode) []alloc.Run {
	if !in.Deleted || in.Refs != 0 {
		return nil
	}
	if c.hooks != nil && c.hooks.OnShrink != nil {
		c.hooks.OnShrink(t, in, 0)
	}
	fi := Of(in)
	delete(c.inodes, fi.ino)
	freed := make([]alloc.Run, len(fi.extents))
	for i, e := range fi.extents {
		freed[i] = alloc.Run{Start: e.Phys, Len: e.Len}
	}
	fi.extents = nil
	fi.allocatedBlocks = 0
	fi.size = 0
	return freed
}

// Release routes freed blocks through the OnFree hook (the pre-zero
// daemon) or straight back to the allocator.
func (c *Core) Release(t *sim.Thread, freed []alloc.Run) {
	if len(freed) == 0 {
		return
	}
	if c.hooks != nil && c.hooks.OnFree != nil {
		ext := make([]vfs.Extent, len(freed))
		for i, r := range freed {
			ext[i] = vfs.Extent{Phys: r.Start, Len: r.Len}
		}
		if c.hooks.OnFree(t, ext) {
			return // the daemon owns them now
		}
	}
	c.alloc.Free(t, freed)
}

// ReleaseZeroed returns daemon-zeroed blocks to the allocator marked
// zeroed.
func (c *Core) ReleaseZeroed(t *sim.Thread, ext []vfs.Extent) {
	runs := make([]alloc.Run, len(ext))
	for i, e := range ext {
		runs[i] = alloc.Run{Start: e.Phys, Len: e.Len, Zeroed: true}
	}
	c.alloc.Free(t, runs)
}
