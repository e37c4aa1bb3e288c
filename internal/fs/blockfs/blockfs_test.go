package blockfs_test

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"

	"daxvm/internal/fs/blockfs"
	"daxvm/internal/fs/ext4"
	"daxvm/internal/fs/nova"
	"daxvm/internal/fs/vfs"
	"daxvm/internal/mem"
	"daxvm/internal/pmem"
	"daxvm/internal/sim"
)

// model is one file-system model under test with its shared core.
type model struct {
	name string
	fs   vfs.FS
	core *blockfs.Core
	// zeroesOnWrite reports whether write(2) zeroes the blocks it
	// allocates. NOVA's does not (the payload initializes them), so bytes
	// of such a block that no write covered hold whatever the device held
	// before and are unspecified if a later size change exposes them.
	zeroesOnWrite bool
}

// models mounts both file systems on small devices, so the allocator's
// cursor wraps within a run and freed blocks, still holding old bytes,
// get reused.
func models(t *testing.T) []model {
	newDev := func() *pmem.Device {
		dev := pmem.New(pmem.Config{Size: 4 << 20})
		t.Cleanup(dev.Release)
		return dev
	}
	e := ext4.Mkfs(ext4.Config{Dev: newDev(), JournalBytes: 512 << 10})
	n := nova.Mkfs(nova.Config{Dev: newDev()})
	return []model{{"ext4-dax", e, e.Core, true}, {"nova", n, n.Core, false}}
}

func run(fn func(t *sim.Thread)) {
	e := sim.New()
	e.Go("t", 0, 0, fn)
	e.Run()
}

// refFile is the plain byte-slice reference for one file. data covers
// the allocated blocks; known marks the bytes whose content is defined
// (written, or zeroed by the model); size may run past data, over a hole
// a growing truncate left, which reads as zeros.
type refFile struct {
	path  string
	in    *vfs.Inode
	size  uint64
	data  []byte
	known []bool
}

// allocate extends the reference to cover blocks, marking the new bytes
// zero if the model zeroes them and unspecified otherwise.
func (r *refFile) allocate(blocks uint64, zeroed bool) {
	for uint64(len(r.data)) < blocks*mem.PageSize {
		r.data = append(r.data, 0)
		r.known = append(r.known, zeroed)
	}
}

func (r *refFile) write(off uint64, p []byte) {
	copy(r.data[off:], p)
	for i := range p {
		r.known[off+uint64(i)] = true
	}
	r.size = max(r.size, off+uint64(len(p)))
}

// truncate mirrors Truncate: a shrink frees the blocks past the new size
// and zeroes the rest of the last kept block; a grow only moves the size.
func (r *refFile) truncate(size uint64) {
	if size >= r.size {
		r.size = size
		return
	}
	keep := min(vfs.BytesToBlocks(size)*mem.PageSize, uint64(len(r.data)))
	for i := size; i < keep; i++ {
		r.data[i], r.known[i] = 0, true
	}
	r.data, r.known = r.data[:keep], r.known[:keep]
	r.size = size
}

// check compares the file's size and every defined byte with the model.
func (r *refFile) check(th *sim.Thread, fs vfs.FS) error {
	if r.in.Size != r.size {
		return fmt.Errorf("%s: size %d, reference %d", r.path, r.in.Size, r.size)
	}
	if r.size == 0 {
		return nil
	}
	got := make([]byte, r.size)
	if n, err := fs.ReadAt(th, r.in, 0, got); err != nil || n != r.size {
		return fmt.Errorf("%s: ReadAt = %d, %v; want %d bytes", r.path, n, err, r.size)
	}
	want := make([]byte, r.size) // a hole past the blocks reads zero
	copy(want, r.data)
	if bytes.Equal(got, want) {
		return nil
	}
	for i, b := range got {
		if b != want[i] && (i >= len(r.known) || r.known[i]) {
			return fmt.Errorf("%s: byte %d = %#x, reference %#x", r.path, i, b, want[i])
		}
	}
	return nil
}

// TestModelsAgreeWithReference runs one seeded operation sequence on
// ext4-DAX and NOVA and, after every step, compares each file with a
// byte-slice reference and checks the extent-map invariant.
func TestModelsAgreeWithReference(t *testing.T) {
	for _, m := range models(t) {
		t.Run(m.name, func(t *testing.T) {
			run(func(th *sim.Thread) {
				if err := replay(th, m, rand.New(rand.NewSource(16)), 1000); err != nil {
					t.Error(err)
				}
			})
		})
	}
}

func replay(th *sim.Thread, m model, rng *rand.Rand, steps int) error {
	var files []*refFile
	payload := func(n int) []byte {
		p := make([]byte, n)
		rng.Read(p)
		return p
	}
	created := 0
	for step := 0; step < steps; step++ {
		var r *refFile
		if len(files) > 0 {
			r = files[rng.Intn(len(files))]
		}
		var what string
		switch op := rng.Intn(8); {
		case r == nil || op == 0 && len(files) < 5:
			what = "create"
			path := fmt.Sprintf("d/%d", created)
			created++
			in, err := m.fs.Create(th, path)
			if err != nil {
				return fmt.Errorf("step %d: Create: %v", step, err)
			}
			files = append(files, &refFile{path: path, in: in})
		case op == 1 || op == 0:
			what = "append"
			p := payload(1 + rng.Intn(16*mem.PageSize))
			if err := m.fs.Append(th, r.in, p); err != nil {
				return fmt.Errorf("step %d: Append: %v", step, err)
			}
			r.allocate(vfs.BytesToBlocks(r.size+uint64(len(p))), m.zeroesOnWrite)
			r.write(r.size, p)
		case op == 2:
			what = "write_at"
			if len(r.data) == 0 {
				continue
			}
			off := uint64(rng.Intn(len(r.data)))
			p := payload(1 + rng.Intn(len(r.data)-int(off)))
			if err := m.fs.WriteAt(th, r.in, off, p); err != nil {
				return fmt.Errorf("step %d: WriteAt(%d, %d): %v", step, off, len(p), err)
			}
			r.write(off, p)
		case op == 3:
			what = "fallocate"
			off := uint64(rng.Intn(int(r.size) + 2*mem.PageSize))
			n := uint64(1 + rng.Intn(16*mem.PageSize))
			if err := m.fs.Fallocate(th, r.in, off, n); err != nil {
				return fmt.Errorf("step %d: Fallocate(%d, %d): %v", step, off, n, err)
			}
			r.allocate(vfs.BytesToBlocks(off+n), true)
			r.size = max(r.size, off+n)
		case op == 4:
			what = "truncate"
			size := uint64(rng.Intn(int(r.size)*3/2 + 2*mem.PageSize))
			if err := m.fs.Truncate(th, r.in, size); err != nil {
				return fmt.Errorf("step %d: Truncate(%d): %v", step, size, err)
			}
			r.truncate(size)
		case op == 5:
			what = "unlink"
			if err := m.fs.Unlink(th, r.path); err != nil {
				return fmt.Errorf("step %d: Unlink: %v", step, err)
			}
			r.in.Deleted = true
			m.fs.PutInode(th, r.in)
			if _, err := m.fs.LoadInode(th, r.in.Ino); err != vfs.ErrNotFound {
				return fmt.Errorf("step %d: LoadInode of a reclaimed inode: %v", step, err)
			}
			for i := range files {
				if files[i] == r {
					files = append(files[:i], files[i+1:]...)
					break
				}
			}
		default:
			what = "reopen"
			m.fs.PutInode(th, r.in) // a live inode survives its last put
			ino, err := m.fs.LookupPath(th, r.path)
			if err != nil || ino != r.in.Ino {
				return fmt.Errorf("step %d: LookupPath = %d, %v", step, ino, err)
			}
			if r.in, err = m.fs.LoadInode(th, ino); err != nil {
				return fmt.Errorf("step %d: LoadInode: %v", step, err)
			}
		}
		for _, f := range files {
			if err := f.check(th, m.fs); err != nil {
				return fmt.Errorf("step %d (%s): %v", step, what, err)
			}
		}
		if err := m.core.CheckExtentMaps(); err != nil {
			return fmt.Errorf("step %d (%s): %v", step, what, err)
		}
	}
	return nil
}

// TestUnlinkedEmptyInodeIsDropped pins the shared release path: an
// unlinked file that never got a block is forgotten on its last put, so a
// cold open cannot resurrect it.
func TestUnlinkedEmptyInodeIsDropped(t *testing.T) {
	for _, m := range models(t) {
		run(func(th *sim.Thread) {
			in, err := m.fs.Create(th, "empty")
			if err != nil {
				t.Errorf("%s: Create: %v", m.name, err)
				return
			}
			if err := m.fs.Unlink(th, "empty"); err != nil {
				t.Errorf("%s: Unlink: %v", m.name, err)
				return
			}
			in.Deleted = true
			m.fs.PutInode(th, in)
			if _, err := m.fs.LoadInode(th, in.Ino); err != vfs.ErrNotFound {
				t.Errorf("%s: LoadInode after the last put = %v, want ErrNotFound", m.name, err)
			}
		})
	}
}

// TestTruncateZeroesTheCutTail pins that bytes past EOF in a partially
// kept block read zero when a later grow exposes them.
func TestTruncateZeroesTheCutTail(t *testing.T) {
	for _, m := range models(t) {
		run(func(th *sim.Thread) {
			in, _ := m.fs.Create(th, "tail")
			m.fs.Append(th, in, bytes.Repeat([]byte{0xAB}, 3*mem.PageSize))
			m.fs.Truncate(th, in, 100)
			m.fs.Truncate(th, in, 2*mem.PageSize)
			got := make([]byte, 2*mem.PageSize)
			m.fs.ReadAt(th, in, 0, got)
			want := append(bytes.Repeat([]byte{0xAB}, 100), make([]byte, 2*mem.PageSize-100)...)
			if !bytes.Equal(got, want) {
				t.Errorf("%s: bytes past a truncated EOF do not read zero after regrowth", m.name)
			}
		})
	}
}
