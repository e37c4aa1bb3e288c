package blockfs

import "fmt"

// CheckExtentMaps verifies the extent-map invariant over every inode the
// core knows (unlinked ones included until reclaimed): extents are sorted
// by file block, contiguous from block 0 and cover exactly
// allocatedBlocks; no physical block is mapped twice; and, with no hooks
// installed to hold freed blocks, free plus mapped blocks equal the
// allocator's total.
func (c *Core) CheckExtentMaps() error {
	owner := map[uint64]uint64{} // physical block -> inode
	var mapped uint64
	for ino, fi := range c.inodes {
		next := uint64(0)
		for _, e := range fi.extents {
			if e.File != next || e.Len == 0 {
				return fmt.Errorf("inode %d: extent %+v does not continue at file block %d", ino, e, next)
			}
			next = e.End()
			for b := e.Phys; b < e.Phys+e.Len; b++ {
				if prev, dup := owner[b]; dup {
					return fmt.Errorf("physical block %d mapped by inodes %d and %d", b, prev, ino)
				}
				owner[b] = uint64(ino)
			}
		}
		if next != fi.allocatedBlocks {
			return fmt.Errorf("inode %d: extents cover %d blocks, allocatedBlocks = %d", ino, next, fi.allocatedBlocks)
		}
		mapped += next
	}
	if c.hooks == nil {
		if free, total := c.alloc.FreeBlocks(), c.alloc.TotalBlocks(); free+mapped != total {
			return fmt.Errorf("free %d + mapped %d blocks != allocator total %d", free, mapped, total)
		}
	}
	return nil
}
