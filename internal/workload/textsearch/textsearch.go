// Package textsearch models the paper's ag (The Silver Searcher)
// experiment: worker threads pull files off a shared queue, scan them for
// a needle string in place (mapped access never moves data out of PMem),
// and move on — Fig. 9a.
package textsearch

import (
	"bytes"

	"daxvm/internal/cost"
	"daxvm/internal/cpu"
	"daxvm/internal/kernel"
	"daxvm/internal/latr"
	"daxvm/internal/mem"
	"daxvm/internal/sim"
	"daxvm/internal/workload/corpus"
	"daxvm/internal/workload/wl"
)

// Config shapes the search run.
type Config struct {
	Threads int
	Tree    corpus.TreeConfig
	Iface   wl.Iface
}

// DefaultConfig mirrors Fig. 9a at simulator scale.
func DefaultConfig() Config {
	return Config{Threads: 16, Tree: corpus.DefaultTree(), Iface: wl.Read}
}

// Result reports the outcome.
type Result struct {
	Files      int
	Matches    uint64
	Bytes      uint64
	Cycles     uint64
	Throughput float64 // MB scanned per virtual second
}

// Run executes the search. Matches are verified against the planted
// needle count so the data path is provably real.
func Run(k *kernel.Kernel, cfg Config) Result {
	proc := k.NewProc()
	var tree *corpus.Tree
	k.Setup(func(t *sim.Thread) {
		tree = corpus.BuildTree(t, proc, cfg.Tree)
	})

	var l *latr.LATR
	if cfg.Iface.LATR {
		l = latr.New(k.Cpus)
	}

	matches := make([]uint64, cfg.Threads)
	needle := []byte(tree.Needle)
	for w := 0; w < cfg.Threads; w++ {
		w := w
		proc.Spawn("ag", w, 0, func(t *sim.Thread, c *cpu.Core) {
			env := &wl.Env{Proc: proc, LATR: l}
			var window []byte // fileContains' media window, taken on first use
			// Static partitioning of the file list.
			for i := w; i < len(tree.Paths); i += cfg.Threads {
				path := tree.Paths[i]
				if cfg.Iface.Syscall {
					n := env.ConsumeFileOnce(t, c, path, cfg.Iface, kernel.KindSum)
					// Scan the private buffer for the needle.
					if bytes.Contains(env.Buf[:n], needle) {
						matches[w]++
					}
					t.Charge(perFileFixedWork)
					continue
				}
				// Mapped scan: translate + stream loads from PMem, and
				// really check the bytes on media.
				fd, err := proc.Open(t, path)
				if err != nil {
					panic(err)
				}
				size := proc.Inode(fd).Size
				var va mem.VirtAddr
				if cfg.Iface.DaxVM {
					va, err = proc.DaxvmMmap(t, c, fd, 0, size, mem.PermRead, cfg.Iface.Flags())
				} else {
					va, err = proc.Mmap(t, c, fd, 0, size, mem.PermRead, cfg.Iface.MapFlags())
				}
				if err != nil {
					panic(err)
				}
				if err := proc.AccessMapped(t, c, va, size, kernel.KindSum); err != nil {
					panic(err)
				}
				if window == nil {
					window = make([]byte, searchWindow)
				}
				if fileContains(proc, fd, needle, window, size) {
					matches[w]++
				}
				switch {
				case cfg.Iface.DaxVM:
					err = proc.DaxvmMunmap(t, c, va)
				case cfg.Iface.LATR:
					err = l.Munmap(t, proc.MM, c, va, size)
					proc.K.ICache.Put(t, proc.Inode(fd))
					l.Tick(t, c)
				default:
					err = proc.Munmap(t, c, va, size)
				}
				if err != nil {
					panic(err)
				}
				proc.Close(t, fd)
				t.Charge(perFileFixedWork)
			}
		})
	}
	cycles := k.Run()
	var total uint64
	for _, m := range matches {
		total += m
	}
	return Result{
		Files:      len(tree.Paths),
		Matches:    total,
		Bytes:      tree.TotalBytes,
		Cycles:     cycles,
		Throughput: float64(tree.TotalBytes) / (1 << 20) * float64(cost.CyclesPerSecond) / float64(cycles),
	}
}

// searchWindow is the size of a worker's media window in fileContains.
const searchWindow = 64 << 10

// fileContains checks media content directly (the mapped data IS the
// file), so matches verify the whole pipeline. It looks for needle within
// each extent, reading the extent through Load into window a window at a
// time; consecutive windows overlap by len(needle)-1 bytes, so a needle
// across a window boundary is still found. Load leaves the device as it
// was: the search gives no page a slab line or a frame.
func fileContains(p *kernel.Proc, fd int, needle, window []byte, size uint64) bool {
	in := p.Inode(fd)
	dev := p.K.Dev
	for _, e := range p.K.FS.Extents(in) {
		n := e.Len * mem.PageSize
		if off := e.File * mem.PageSize; off+n > size {
			if size <= off {
				break
			}
			n = size - off
		}
		addr := mem.PhysAddr(e.Phys * mem.PageSize)
		kept := 0 // bytes carried over from the previous window
		for done := uint64(0); done < n; {
			m := min(uint64(len(window)-kept), n-done)
			dev.Load(addr+mem.PhysAddr(done), window[kept:kept+int(m)])
			w := window[:kept+int(m)]
			if bytes.Contains(w, needle) {
				return true
			}
			done += m
			kept = min(len(needle)-1, len(w))
			copy(window, w[len(w)-kept:])
		}
	}
	return false
}

// perFileFixedWork: pattern-compile amortization, result bookkeeping.
const perFileFixedWork = 2_000
