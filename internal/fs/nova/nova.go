// Package nova models the NOVA file system (relaxed mode): log-structured
// per-inode metadata committed synchronously and in place, which makes the
// MAP_SYNC interface a no-op; the write(2) path does NOT zero new blocks
// (it overwrites them with the payload), but fallocate for DAX mapping
// MUST zero — the asymmetry Fig. 7 (NOVA) exposes. The namespace, extent
// maps, media I/O and block release are the shared blockfs core; this
// package adds the metadata log and NOVA's costs.
package nova

import (
	"daxvm/internal/cost"
	"daxvm/internal/fs/alloc"
	"daxvm/internal/fs/blockfs"
	"daxvm/internal/fs/vfs"
	"daxvm/internal/mem"
	"daxvm/internal/obs/span"
	"daxvm/internal/pmem"
	"daxvm/internal/sim"
)

// Log and metadata attribution labels; "nova.log_append" is a span
// class.
var (
	labelLogAppendSpan = sim.NewLabel("nova.log_append")
	labelLogAppend     = sim.NewLabel("log_append")
	labelPathLookup    = sim.NewLabel("path_lookup")
	labelInodeLoad     = sim.NewLabel("inode_load")
	labelFsyncFixed    = sim.NewLabel("fsync_fixed")
)

// Config controls mkfs.
type Config struct {
	Dev *pmem.Device
	// TrustZeroed enables the DaxVM pre-zeroing extension.
	TrustZeroed bool
	Hooks       *vfs.Hooks
}

// FS is a NOVA instance.
type FS struct {
	*blockfs.Core

	logArea mem.PhysAddr
	logOff  uint64
	logCap  uint64

	Stats FSStats
}

// FSStats counts data-path activity.
type FSStats struct {
	LogAppends uint64
	blockfs.ZeroStats
}

const logBytes = 64 << 20

// Mkfs formats the device. The metadata-log area is 64 MiB or 1/16 of the
// device, whichever is smaller.
func Mkfs(cfg Config) *FS {
	lb := uint64(logBytes)
	if lb > cfg.Dev.Size()/16 {
		lb = cfg.Dev.Size() / 16
	}
	firstData := vfs.BytesToBlocks(lb)
	total := cfg.Dev.Size() / mem.PageSize
	f := &FS{logCap: lb}
	f.Core = blockfs.New(cfg.Dev, alloc.New(firstData, total-firstData, true), cfg.Hooks, cfg.TrustZeroed, &f.Stats.ZeroStats)
	return f
}

// Name implements vfs.FS.
func (f *FS) Name() string { return "nova" }

// logAppend models one synchronous metadata log entry: an nt-stored,
// fenced record. This is why NOVA needs no MAP_SYNC faults.
func (f *FS) logAppend(t *sim.Thread) {
	span.Of(t).Open(t, labelLogAppendSpan)
	defer span.Of(t).End(t)
	f.Stats.LogAppends++
	t.ChargeAs(labelLogAppend, cost.NovaLogAppend)
	if f.logOff+mem.CacheLineSize > f.logCap {
		f.logOff = 0
	}
	dev := f.Device()
	dev.StreamNT(t, f.logArea+mem.PhysAddr(f.logOff), mem.CacheLineSize)
	f.logOff += mem.CacheLineSize
	dev.Fence(t)
}

// Create implements vfs.FS.
func (f *FS) Create(t *sim.Thread, path string) (*vfs.Inode, error) {
	in, err := f.NewFile(t, path)
	if err != nil {
		return nil, err
	}
	f.logAppend(t)
	return in, nil
}

// LookupPath implements vfs.FS: one flat directory lookup.
func (f *FS) LookupPath(t *sim.Thread, path string) (vfs.Ino, error) {
	t.ChargeAs(labelPathLookup, cost.PathLookupPerCmp)
	return f.Lookup(path)
}

// LoadInode implements vfs.FS: NOVA replays the inode log on a cold open.
func (f *FS) LoadInode(t *sim.Thread, ino vfs.Ino) (*vfs.Inode, error) {
	in, err := f.Load(ino)
	if err != nil {
		return nil, err
	}
	t.ChargeAs(labelInodeLoad, cost.PMemLoadLatency+cost.PMemSeqLoadLat*uint64(1+blockfs.Of(in).ExtentCount()/32))
	return in, nil
}

// Unlink implements vfs.FS.
func (f *FS) Unlink(t *sim.Thread, path string) error {
	if err := f.RemoveEntry(t, path); err != nil {
		return err
	}
	f.logAppend(t)
	return nil
}

// PutInode implements vfs.FS: an unlinked inode's last put logs the drop
// and frees its blocks.
func (f *FS) PutInode(t *sim.Thread, in *vfs.Inode) {
	if freed := f.Reclaim(t, in); len(freed) > 0 {
		f.logAppend(t)
		f.Release(t, freed)
	}
}

// ensureBlocks allocates blocks so the file covers [0, blocks), zeroing
// them only when zero is set. The log entry commits the new extents
// synchronously: no MetaDirty, ever.
func (f *FS) ensureBlocks(t *sim.Thread, in *vfs.Inode, blocks uint64, zero bool) error {
	runs, err := f.Reserve(t, in, blocks)
	if len(runs) == 0 {
		return err
	}
	ext := f.Map(t, in, runs, zero)
	f.logAppend(t)
	f.Allocated(t, in, ext)
	return nil
}

// Append implements vfs.FS. NOVA does not zero on the write path: the
// payload itself initializes the new blocks.
func (f *FS) Append(t *sim.Thread, in *vfs.Inode, data []byte) error {
	fi := blockfs.Of(in)
	fi.Mu.Lock(t, cost.SemAcquireFast)
	defer fi.Mu.Unlock(t, cost.SemReleaseFast)
	if err := f.ensureBlocks(t, in, vfs.BytesToBlocks(fi.Size()+uint64(len(data))), false); err != nil {
		return err
	}
	f.AppendData(t, in, data)
	f.logAppend(t)
	return nil
}

// WriteAt implements vfs.FS (relaxed mode: in-place update).
func (f *FS) WriteAt(t *sim.Thread, in *vfs.Inode, off uint64, data []byte) error {
	grew, err := f.Overwrite(t, in, off, data)
	if grew {
		f.logAppend(t)
	}
	return err
}

// Fallocate implements vfs.FS: blocks exposed for DAX mapping must be
// zeroed (security), even though the write path is zero-free.
func (f *FS) Fallocate(t *sim.Thread, in *vfs.Inode, off, n uint64) error {
	fi := blockfs.Of(in)
	fi.Mu.Lock(t, cost.SemAcquireFast)
	defer fi.Mu.Unlock(t, cost.SemReleaseFast)
	if err := f.ensureBlocks(t, in, vfs.BytesToBlocks(off+n), true); err != nil {
		return err
	}
	if f.Extend(in, off+n) {
		f.logAppend(t)
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
	f.logAppend(t)
	f.Trimmed(t, in, freed)
	return nil
}

// Fsync implements vfs.FS: metadata is already durable; only a fixed cost.
func (f *FS) Fsync(t *sim.Thread, in *vfs.Inode) {
	t.ChargeAs(labelFsyncFixed, cost.FsyncFixed)
}

// SyncMetaIfDirty implements vfs.FS: a no-op — NOVA commits synchronously,
// so MAP_SYNC faults carry no journal work (the Fig. 9c NOVA contrast).
func (f *FS) SyncMetaIfDirty(t *sim.Thread, in *vfs.Inode) bool { return false }
