// Package ext4 models ext4 with DAX (the paper's primary file system):
// extent-mapped inodes, a jbd2-style journal, and the DAX data paths —
// write(2) copies with non-temporal stores directly to media, and block
// allocation conservatively zeroes new blocks even on the system-call
// path (the behaviour DaxVM's asynchronous pre-zeroing removes). The
// namespace, extent maps, media I/O and block release are the shared
// blockfs core; this package adds the journal and ext4's costs.
package ext4

import (
	"strings"

	"daxvm/internal/cost"
	"daxvm/internal/fs/alloc"
	"daxvm/internal/fs/blockfs"
	"daxvm/internal/fs/vfs"
	"daxvm/internal/mem"
	"daxvm/internal/pmem"
	"daxvm/internal/sim"
)

// Metadata attribution labels.
var (
	labelInodeUpdate = sim.NewLabel("inode_update")
	labelPathLookup  = sim.NewLabel("path_lookup")
	labelInodeLoad   = sim.NewLabel("inode_load")
	labelFsyncFixed  = sim.NewLabel("fsync_fixed")
)

// Config controls mkfs.
type Config struct {
	// Dev is the backing device.
	Dev *pmem.Device
	// JournalBytes reserves the log area (default 128 MiB).
	JournalBytes uint64
	// TrustZeroed lets the allocator's zeroed tracking skip redundant
	// zeroing — the DaxVM pre-zeroing extension. Baseline ext4-DAX is
	// conservative and zeroes unconditionally.
	TrustZeroed bool
	// Hooks are the DaxVM extension points.
	Hooks *vfs.Hooks
}

// FS is the ext4-DAX instance.
type FS struct {
	*blockfs.Core
	journal *Journal

	Stats FSStats
}

// FSStats counts data-path activity.
type FSStats struct {
	Creates uint64
	Unlinks uint64
	Appends uint64
	blockfs.ZeroStats
	MetaSyncs uint64
}

// Mkfs formats the device.
func Mkfs(cfg Config) *FS {
	jb := cfg.JournalBytes
	if jb == 0 {
		jb = 128 << 20
	}
	if jb >= cfg.Dev.Size() {
		panic("ext4: journal larger than device")
	}
	firstDataBlock := vfs.BytesToBlocks(jb)
	totalBlocks := cfg.Dev.Size() / mem.PageSize
	f := &FS{journal: NewJournal(cfg.Dev, 0, jb)}
	f.Core = blockfs.New(cfg.Dev, alloc.New(firstDataBlock, totalBlocks-firstDataBlock, true), cfg.Hooks, cfg.TrustZeroed, &f.Stats.ZeroStats)
	return f
}

// Name implements vfs.FS.
func (f *FS) Name() string { return "ext4-dax" }

// Journal exposes the journal (DaxVM couples file-table fences to it).
func (f *FS) Journal() *Journal { return f.journal }

// Create implements vfs.FS.
func (f *FS) Create(t *sim.Thread, path string) (*vfs.Inode, error) {
	in, err := f.NewFile(t, path)
	if err != nil {
		return nil, err
	}
	f.Stats.Creates++
	t.ChargeAs(labelInodeUpdate, cost.InodeUpdate)
	f.journal.Begin(t)
	f.journal.AddMeta(t, 1)
	return in, nil
}

// LookupPath implements vfs.FS: one directory lookup per path component.
func (f *FS) LookupPath(t *sim.Thread, path string) (vfs.Ino, error) {
	comps := uint64(1 + strings.Count(path, "/"))
	t.ChargeAs(labelPathLookup, cost.PathLookupPerCmp*comps)
	return f.Lookup(path)
}

// LoadInode implements vfs.FS: a cold open reads the inode and its extent
// tree from media.
func (f *FS) LoadInode(t *sim.Thread, ino vfs.Ino) (*vfs.Inode, error) {
	in, err := f.Load(ino)
	if err != nil {
		return nil, err
	}
	// Inode block + one media access per 64 extents (340 fit a 4 KiB
	// extent-tree block; be conservative).
	t.ChargeAs(labelInodeLoad, cost.PMemLoadLatency+cost.PMemSeqLoadLat*uint64(1+blockfs.Of(in).ExtentCount()/64))
	return in, nil
}

// Unlink implements vfs.FS.
func (f *FS) Unlink(t *sim.Thread, path string) error {
	if err := f.RemoveEntry(t, path); err != nil {
		return err
	}
	f.Stats.Unlinks++
	f.journal.Begin(t)
	f.journal.AddMeta(t, 1)
	t.ChargeAs(labelInodeUpdate, cost.InodeUpdate)
	return nil
}

// PutInode implements vfs.FS: an unlinked inode's last put journals the
// extent-tree drop and frees its blocks.
func (f *FS) PutInode(t *sim.Thread, in *vfs.Inode) {
	if freed := f.Reclaim(t, in); len(freed) > 0 {
		f.journal.Begin(t)
		f.journal.AddMeta(t, uint64(1+len(freed)/64))
		f.Release(t, freed)
	}
}

// ensureBlocks allocates blocks so the file covers [0, blocks). New
// blocks are zeroed per policy, the extents are journaled and metadata is
// marked dirty (MAP_SYNC exposure) before the OnAlloc hook runs.
func (f *FS) ensureBlocks(t *sim.Thread, in *vfs.Inode, blocks uint64) error {
	runs, err := f.Reserve(t, in, blocks)
	if len(runs) == 0 {
		return err
	}
	f.journal.Begin(t)
	ext := f.Map(t, in, runs, true)
	f.journal.AddMeta(t, uint64(1+len(ext)/8))
	in.MetaDirty = true
	in.MetaDirtyBlocks += uint64(1 + len(ext)/8)
	f.Allocated(t, in, ext)
	return nil
}

// Append implements vfs.FS: write(2) at EOF. Data goes to media with
// non-temporal stores (no dirty tracking needed).
func (f *FS) Append(t *sim.Thread, in *vfs.Inode, data []byte) error {
	fi := blockfs.Of(in)
	fi.Mu.Lock(t, cost.SemAcquireFast)
	defer fi.Mu.Unlock(t, cost.SemReleaseFast)
	if err := f.ensureBlocks(t, in, vfs.BytesToBlocks(fi.Size()+uint64(len(data)))); err != nil {
		return err
	}
	f.AppendData(t, in, data)
	t.ChargeAs(labelInodeUpdate, cost.InodeUpdate)
	f.journal.AddMeta(t, 1)
	f.Stats.Appends++
	return nil
}

// WriteAt implements vfs.FS: overwrite within the file.
func (f *FS) WriteAt(t *sim.Thread, in *vfs.Inode, off uint64, data []byte) error {
	grew, err := f.Overwrite(t, in, off, data)
	if grew {
		t.ChargeAs(labelInodeUpdate, cost.InodeUpdate)
	}
	return err
}

// Fallocate implements vfs.FS.
func (f *FS) Fallocate(t *sim.Thread, in *vfs.Inode, off, n uint64) error {
	fi := blockfs.Of(in)
	fi.Mu.Lock(t, cost.SemAcquireFast)
	defer fi.Mu.Unlock(t, cost.SemReleaseFast)
	if err := f.ensureBlocks(t, in, vfs.BytesToBlocks(off+n)); err != nil {
		return err
	}
	if f.Extend(in, off+n) {
		t.ChargeAs(labelInodeUpdate, cost.InodeUpdate)
		f.journal.AddMeta(t, 1)
	}
	return nil
}

// Truncate implements vfs.FS.
func (f *FS) Truncate(t *sim.Thread, in *vfs.Inode, size uint64) error {
	fi := blockfs.Of(in)
	fi.Mu.Lock(t, cost.SemAcquireFast)
	defer fi.Mu.Unlock(t, cost.SemReleaseFast)
	freed, shrunk := f.Cut(t, in, size)
	if !shrunk {
		return nil
	}
	f.journal.Begin(t)
	f.journal.AddMeta(t, uint64(1+len(freed)/8))
	in.MetaDirty = true
	in.MetaDirtyBlocks++
	f.Trimmed(t, in, freed)
	return nil
}

// Fsync implements vfs.FS (metadata part; mapped-data flushing is the
// mm layer's job).
func (f *FS) Fsync(t *sim.Thread, in *vfs.Inode) {
	t.ChargeAs(labelFsyncFixed, cost.FsyncFixed)
	if in.MetaDirty {
		f.journal.Commit(t)
		in.MetaDirty = false
		in.MetaDirtyBlocks = 0
	}
}

// SyncMetaIfDirty implements vfs.FS: the MAP_SYNC write-fault path.
func (f *FS) SyncMetaIfDirty(t *sim.Thread, in *vfs.Inode) bool {
	if !in.MetaDirty {
		return false
	}
	f.Stats.MetaSyncs++
	f.journal.Commit(t)
	in.MetaDirty = false
	in.MetaDirtyBlocks = 0
	return true
}
