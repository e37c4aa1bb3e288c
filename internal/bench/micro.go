package bench

import (
	"fmt"
	"math/rand"

	"daxvm/internal/core"
	"daxvm/internal/cost"
	"daxvm/internal/cpu"
	"daxvm/internal/kernel"
	"daxvm/internal/latr"
	"daxvm/internal/mem"
	"daxvm/internal/sim"
	"daxvm/internal/workload/corpus"
	"daxvm/internal/workload/wl"
)

func init() {
	register("fig4", "Read-once (ephemeral) file access vs file size (Fig. 1a/4)", runFig4)
	register("fig1b", "Read-once throughput scalability, 32 KiB files (Fig. 1b)", runFig1b)
	register("fig5", "Repetitive access over a large file (Fig. 1c/5)", runFig5)
	registerCost("table2", "Average page-walk cycles: DRAM vs PMem file tables (Table II)", runTable2)
	register("fig6", "Kernel- vs user-space syncing (Fig. 6)", runFig6)
	register("fig7", "Append operations: zeroing and interfaces (Fig. 7)", runFig7)
	register("ftcost", "File-table maintenance overhead on appends (§V-B)", runFTCost)
	registerCost("storage", "File-table storage overheads on a source tree (§V-B)", runStorage)
}

// boot builds a machine tailored to one interface.
func boot(o Options, iface wl.Iface, cores int, aged bool, fs kernel.FSKind, mod func(*kernel.Config)) *kernel.Kernel {
	cfg := kernel.Config{
		Cores:       cores,
		DeviceBytes: 2 << 30,
		FS:          fs,
		Age:         aged,
		DaxVM:       iface.DaxVM,
		Obs:         o.Obs,
		Timeline:    o.Timeline,
		Spans:       o.Spans,
	}
	if o.Quick {
		cfg.DeviceBytes = 1 << 30
	}
	if mod != nil {
		mod(&cfg)
	}
	return bootMachine(cfg)
}

// live is the machine bootMachine built last.
var live *kernel.Kernel

// bootMachine boots cfg after closing the previous machine. Experiments
// run their cells one after another, and a cell is done with its machine
// by the time it boots the next. The previous machine's own Stats stay
// readable, but no hub export reads it any more. Left open, a finished
// device's written pages would stay mapped until the process exits:
// device memory does not count toward the Go heap, and nothing else
// returns it.
func bootMachine(cfg kernel.Config) *kernel.Kernel {
	CloseLast()
	live = kernel.Boot(cfg)
	return live
}

// closeMachine ends a finished machine. Tests wrap it to read each
// machine's final counters just before it ends.
var closeMachine = (*kernel.Kernel).Close

// CloseLast closes the machine bootMachine built last, if any: the one
// an experiment's Run leaves open for its caller to snapshot.
func CloseLast() {
	if live != nil {
		closeMachine(live)
		live = nil
	}
}

// consumeOnce measures open->touch->close over the paths, threads-wide.
func consumeOnce(k *kernel.Kernel, iface wl.Iface, paths []string, threads int, kind kernel.AccessKind) (bytes, cycles uint64) {
	proc := k.NewProc()
	var l *latr.LATR
	if iface.LATR {
		l = latr.New(k.Cpus)
	}
	done := make([]uint64, threads)
	for w := 0; w < threads; w++ {
		w := w
		proc.Spawn("consume", w, 0, func(t *sim.Thread, c *cpu.Core) {
			env := &wl.Env{Proc: proc, LATR: l}
			for i := w; i < len(paths); i += threads {
				done[w] += env.ConsumeFileOnce(t, c, paths[i], iface, kind)
			}
		})
	}
	cycles = k.Run()
	for _, d := range done {
		bytes += d
	}
	return bytes, cycles
}

// mbps converts (bytes, cycles) to MB per virtual second.
func mbps(bytes, cycles uint64) float64 {
	if cycles == 0 {
		return 0
	}
	return float64(bytes) / (1 << 20) * float64(cost.CyclesPerSecond) / float64(cycles)
}

// opsps converts (ops, cycles) to ops per virtual second.
func opsps(ops, cycles uint64) float64 {
	if cycles == 0 {
		return 0
	}
	return float64(ops) * float64(cost.CyclesPerSecond) / float64(cycles)
}

// readOnceIfaces is the interface set of Figs. 1/4.
var readOnceIfaces = []wl.Iface{wl.Read, wl.Mmap, wl.MmapPopulate, wl.DaxVMAsync}

// runFig4 sweeps file size at one thread on an aged image.
func runFig4(o Options) *Result {
	sizes := []uint64{4 << 10, 16 << 10, 32 << 10, 128 << 10, 512 << 10, 2 << 20, 8 << 20, 32 << 20}
	budget := uint64(192 << 20)
	if o.Quick {
		sizes = []uint64{4 << 10, 32 << 10, 512 << 10, 8 << 20}
		budget = 48 << 20
	}
	res := &Result{ID: "fig4", Title: "Read-once throughput relative to read(2), 1 thread, aged ext4-DAX"}
	tab := Table{Cols: []string{"filesize"}}
	for _, f := range readOnceIfaces {
		tab.Cols = append(tab.Cols, f.Name, f.Name+"-MB/s")
	}
	for _, size := range sizes {
		n := int(budget / size)
		if n > 400 {
			n = 400
		}
		if n < 4 {
			n = 4
		}
		row := []string{fmtBytes(size)}
		var baseline float64
		for _, iface := range readOnceIfaces {
			k := boot(o, iface, 1, true, kernel.Ext4, nil)
			proc := k.NewProc()
			var paths []string
			k.Setup(func(t *sim.Thread) {
				paths = corpus.Fixed(t, proc, "pool", n, size)
			})
			bytes, cycles := consumeOnce(k, iface, paths, 1, kernel.KindSum)
			tp := mbps(bytes, cycles)
			if iface.Name == "read" {
				baseline = tp
			}
			row = append(row, fmtRel(tp, baseline), fmtF(tp))
			res.Metric(fmt.Sprintf("%s/%s", fmtBytes(size), iface.Name), tp)
			o.logf("fig4 %s %s: %.1f MB/s", fmtBytes(size), iface.Name, tp)
		}
		tab.Rows = append(tab.Rows, row)
	}
	res.Tables = append(res.Tables, tab)
	return res
}

// runFig1b sweeps thread count at 32 KiB files.
func runFig1b(o Options) *Result {
	threads := []int{1, 2, 4, 8, 16}
	perThreadFiles := 120
	if o.Quick {
		threads = []int{1, 4, 16}
		perThreadFiles = 40
	}
	res := &Result{ID: "fig1b", Title: "Read-once ops/s vs threads, 32 KiB files, aged ext4-DAX"}
	tab := Table{Cols: []string{"threads"}}
	for _, f := range readOnceIfaces {
		tab.Cols = append(tab.Cols, f.Name)
	}
	for _, th := range threads {
		row := []string{fmt.Sprintf("%d", th)}
		for _, iface := range readOnceIfaces {
			k := boot(o, iface, th, true, kernel.Ext4, nil)
			proc := k.NewProc()
			n := th * perThreadFiles
			var paths []string
			k.Setup(func(t *sim.Thread) {
				paths = corpus.Fixed(t, proc, "pool", n, 32<<10)
			})
			_, cycles := consumeOnce(k, iface, paths, th, kernel.KindSum)
			tp := opsps(uint64(n), cycles)
			row = append(row, fmtF(tp))
			res.Metric(fmt.Sprintf("t%d/%s", th, iface.Name), tp)
			o.logf("fig1b t=%d %s: %.0f ops/s", th, iface.Name, tp)
		}
		tab.Rows = append(tab.Rows, row)
	}
	res.Tables = append(res.Tables, tab)
	return res
}

// fig5 patterns.
type pattern struct {
	name   string
	random bool
	write  bool
	unit   uint64
}

// runFig5 measures repetitive ops over one large mapped file.
func runFig5(o Options) *Result {
	fileSize := uint64(256 << 20)
	ops := 24_000
	if o.Quick {
		fileSize = 64 << 20
		ops = 6_000
	}
	pats := []pattern{
		{"seq-read-1K", false, false, 1 << 10},
		{"rand-read-1K", true, false, 1 << 10},
		{"seq-write-1K", false, true, 1 << 10},
		{"rand-write-1K", true, true, 1 << 10},
		{"seq-read-4K", false, false, 4 << 10},
		{"rand-read-4K", true, false, 4 << 10},
		{"seq-write-4K", false, true, 4 << 10},
		{"rand-write-4K", true, true, 4 << 10},
	}
	ifaces := []wl.Iface{wl.Read, wl.Mmap, wl.MmapPopulate, wl.DaxVMTables, wl.DaxVMNoSync}
	res := &Result{ID: "fig5", Title: "Repetitive access ops/s relative to read/write(2), aged ext4-DAX"}
	tab := Table{Cols: []string{"pattern"}}
	for _, f := range ifaces {
		name := f.Name
		if name == "read" {
			name = "syscall"
		}
		tab.Cols = append(tab.Cols, name)
	}
	for _, p := range pats {
		row := []string{p.name}
		var baseline float64
		for _, iface := range ifaces {
			// The paper runs the irregular patterns with the MMU monitor
			// active: it migrates hot PMem file tables to DRAM (§V-B).
			k := boot(o, iface, 1, true, kernel.Ext4, func(c *kernel.Config) {
				c.Monitor = iface.DaxVM
			})
			proc := k.NewProc()
			var fd int
			k.Setup(func(t *sim.Thread) {
				var err error
				fd, err = proc.Create(t, "big")
				if err != nil {
					panic(err)
				}
				if err := proc.Fallocate(t, fd, 0, fileSize); err != nil {
					panic(err)
				}
			})
			cycles := runRepetitive(k, proc, fd, iface, p, fileSize, ops)
			tp := opsps(uint64(ops), cycles)
			if iface.Name == "read" {
				baseline = tp
			}
			row = append(row, fmtRel(tp, baseline))
			res.Metric(p.name+"/"+iface.Name, tp)
			o.logf("fig5 %s %s: %.0f ops/s", p.name, iface.Name, tp)
		}
		tab.Rows = append(tab.Rows, row)
	}
	res.Tables = append(res.Tables, tab)
	return res
}

func runRepetitive(k *kernel.Kernel, proc *kernel.Proc, fd int, iface wl.Iface, p pattern, fileSize uint64, ops int) uint64 {
	proc.Spawn("db", 0, 0, func(t *sim.Thread, c *cpu.Core) {
		var va mem.VirtAddr
		var err error
		perm := mem.PermRead | mem.PermWrite
		if iface.DaxVM {
			va, err = proc.DaxvmMmap(t, c, fd, 0, fileSize, perm, iface.Flags())
		} else if !iface.Syscall {
			va, err = proc.Mmap(t, c, fd, 0, fileSize, perm, iface.MapFlags())
		}
		if err != nil {
			panic(err)
		}
		rng := rand.New(rand.NewSource(3))
		buf := make([]byte, p.unit)
		off := uint64(0)
		for i := 0; i < ops; i++ {
			if p.random {
				off = uint64(rng.Int63n(int64(fileSize-p.unit))) &^ 63
			} else {
				off += p.unit
				if off+p.unit > fileSize {
					off = 0
				}
			}
			switch {
			case iface.Syscall && p.write:
				if err := proc.WriteAt(t, fd, off, buf); err != nil {
					panic(err)
				}
			case iface.Syscall:
				if _, err := proc.ReadAt(t, fd, off, buf); err != nil {
					panic(err)
				}
			case p.write:
				if err := proc.AccessMapped(t, c, va+mem.VirtAddr(off), p.unit, kernel.KindNTWrite); err != nil {
					panic(err)
				}
			default:
				if err := proc.AccessMapped(t, c, va+mem.VirtAddr(off), p.unit, kernel.KindCopyOut); err != nil {
					panic(err)
				}
			}
		}
	})
	return k.Run()
}

// runTable2 measures average walk cycles for seq/rand reads with file
// tables resident in DRAM vs PMem.
func runTable2(o Options) *Result {
	res := &Result{ID: "table2", Title: "Average page-walk cycles, 4 KiB access on a mapped file (Table II)"}
	fileSize := uint64(128 << 20)
	touches := 60_000
	if o.Quick {
		fileSize = 32 << 20
		touches = 20_000
	}
	tab := Table{Cols: []string{"benchmark", "DRAM file tables", "PMem file tables"}}
	vals := map[string]uint64{}
	for _, medium := range []string{"DRAM", "PMem"} {
		threshold := uint64(0) // PMem: everything persistent
		if medium == "DRAM" {
			threshold = 1 << 62 // volatile tables for everything
		}
		for _, random := range []bool{false, true} {
			iface := wl.DaxVMNoSync
			k := boot(o, iface, 1, false, kernel.Ext4, func(c *kernel.Config) {
				c.DaxVMConfig = core.Config{VolatileThreshold: threshold}
			})
			proc := k.NewProc()
			var fd int
			k.Setup(func(t *sim.Thread) {
				var err error
				fd, err = proc.Create(t, "t2")
				if err != nil {
					panic(err)
				}
				// Interleave with a pad file so chunks never promote to
				// huge leaves (the measurement needs PTE-level walks).
				pad, _ := proc.Create(t, "pad")
				for off := uint64(0); off < fileSize; off += 512 << 10 {
					proc.Fallocate(t, fd, 0, off+512<<10)
					proc.Fallocate(t, pad, 0, off/1024+4096)
				}
			})
			core0 := k.Cpus.Cores[0]
			proc.Spawn("walker", 0, 0, func(t *sim.Thread, c *cpu.Core) {
				va, err := proc.DaxvmMmap(t, c, fd, 0, fileSize, mem.PermRead, iface.Flags())
				if err != nil {
					panic(err)
				}
				// Warm attachments, then reset counters.
				proc.AccessMapped(t, c, va, 2<<20, kernel.KindSum)
				c.Stats = cpu.CoreStats{}
				c.TLB.FlushAll()
				c.DropPTELines()
				rng := rand.New(rand.NewSource(9))
				off := uint64(0)
				span := fileSize &^ (mem.HugeSize - 1)
				for i := 0; i < touches; i++ {
					if random {
						off = uint64(rng.Int63n(int64(span-4096))) &^ 4095
					} else {
						off += 4096
						if off+4096 > span {
							off = 0
						}
					}
					if err := proc.AccessMapped(t, c, va+mem.VirtAddr(off), 64, kernel.KindSum); err != nil {
						panic(err)
					}
				}
			})
			k.Run()
			avg := uint64(0)
			if core0.Stats.Walks > 0 {
				avg = core0.Stats.WalkCycles / core0.Stats.Walks
			}
			key := "seq"
			if random {
				key = "rand"
			}
			vals[medium+"/"+key] = avg
			res.Metric(medium+"/"+key, float64(avg))
			o.logf("table2 %s %s: %d cycles/walk", medium, key, avg)
		}
	}
	tab.Rows = [][]string{
		{"seq read", fmt.Sprintf("%d", vals["DRAM/seq"]), fmt.Sprintf("%d", vals["PMem/seq"])},
		{"rand read", fmt.Sprintf("%d", vals["DRAM/rand"]), fmt.Sprintf("%d", vals["PMem/rand"])},
	}
	res.Tables = append(res.Tables, tab)
	res.Note("paper Table II: seq 28/103, rand 111/821 cycles")
	return res
}

// runFig6 compares durability management paths.
func runFig6(o Options) *Result {
	fileSize := uint64(256 << 20)
	totalWrite := uint64(48 << 20)
	if o.Quick {
		fileSize = 64 << 20
		totalWrite = 12 << 20
	}
	windows := []uint64{16 << 10, 64 << 10, 256 << 10, 1 << 20, 4 << 20}
	res := &Result{ID: "fig6", Title: "Sequential 4 KiB writes + syncing every W bytes (relative to write+fsync)"}
	variants := []string{"write+fsync", "mmap+msync", "daxvm+msync", "mmap-user-sync", "daxvm-nosync"}
	tab := Table{Cols: append([]string{"window"}, variants...)}
	for _, win := range windows {
		row := []string{fmtBytes(win)}
		var baseline float64
		for _, variant := range variants {
			iface := wl.Mmap
			switch variant {
			case "daxvm+msync":
				iface = wl.DaxVMTables
			case "daxvm-nosync":
				iface = wl.DaxVMNoSync
			case "write+fsync":
				iface = wl.Read
			}
			k := boot(o, iface, 1, false, kernel.Ext4, func(c *kernel.Config) {
				c.HugePagesOff = true // paper turns huge pages off here
			})
			proc := k.NewProc()
			var fd int
			k.Setup(func(t *sim.Thread) {
				fd, _ = proc.Create(t, "sync")
				proc.Fallocate(t, fd, 0, fileSize)
			})
			cycles := runSyncVariant(k, proc, fd, variant, iface, fileSize, totalWrite, win)
			tp := mbps(totalWrite, cycles)
			if variant == "write+fsync" {
				baseline = tp
			}
			row = append(row, fmtRel(tp, baseline))
			res.Metric(fmt.Sprintf("%s/%s", fmtBytes(win), variant), tp)
			o.logf("fig6 win=%s %s: %.1f MB/s", fmtBytes(win), variant, tp)
		}
		tab.Rows = append(tab.Rows, row)
	}
	res.Tables = append(res.Tables, tab)
	return res
}

func runSyncVariant(k *kernel.Kernel, proc *kernel.Proc, fd int, variant string, iface wl.Iface, fileSize, totalWrite, window uint64) uint64 {
	proc.Spawn("sync", 0, 0, func(t *sim.Thread, c *cpu.Core) {
		const unit = 4 << 10
		var va mem.VirtAddr
		var err error
		if variant != "write+fsync" {
			perm := mem.PermRead | mem.PermWrite
			if iface.DaxVM {
				va, err = proc.DaxvmMmap(t, c, fd, 0, fileSize, perm, iface.Flags())
			} else {
				va, err = proc.Mmap(t, c, fd, 0, fileSize, perm, iface.MapFlags())
			}
			if err != nil {
				panic(err)
			}
		}
		buf := make([]byte, unit)
		sinceSync := uint64(0)
		for off := uint64(0); off < totalWrite; off += unit {
			pos := off % (fileSize - unit)
			switch variant {
			case "write+fsync":
				if err := proc.WriteAt(t, fd, pos, buf); err != nil {
					panic(err)
				}
			case "mmap+msync", "daxvm+msync":
				// Kernel-managed durability: cached stores, flushed by
				// msync.
				if err := proc.AccessMapped(t, c, va+mem.VirtAddr(pos), unit, kernel.KindCachedWrite); err != nil {
					panic(err)
				}
			default:
				// User-managed durability: nt-stores.
				if err := proc.AccessMapped(t, c, va+mem.VirtAddr(pos), unit, kernel.KindNTWrite); err != nil {
					panic(err)
				}
			}
			sinceSync += unit
			if sinceSync >= window {
				sinceSync = 0
				switch variant {
				case "write+fsync":
					proc.Fsync(t, fd)
				case "mmap+msync", "daxvm+msync":
					proc.Msync(t, c, va, fileSize)
				default:
					// User syncing: the nt-stores are already durable;
					// just a fence.
					proc.K.Dev.Fence(t)
				}
			}
		}
	})
	return k.Run()
}

// runFig7 measures single-operation appends through each interface.
func runFig7(o Options) *Result {
	sizes := []uint64{4 << 10, 16 << 10, 64 << 10, 256 << 10, 1 << 20, 4 << 20}
	reps := 30
	if o.Quick {
		sizes = []uint64{4 << 10, 64 << 10, 1 << 20}
		reps = 10
	}
	res := &Result{ID: "fig7", Title: "Append throughput relative to write(2) (Fig. 7)"}
	variants := []string{"write", "mmap", "daxvm", "daxvm+prezero", "daxvm+prezero+nosync"}
	for _, fsKind := range []kernel.FSKind{kernel.Ext4, kernel.Nova} {
		tab := Table{Title: string(fsKind), Cols: append([]string{"append"}, variants...)}
		for _, size := range sizes {
			row := []string{fmtBytes(size)}
			var baseline float64
			for _, variant := range variants {
				tp := runAppendVariant(o, fsKind, variant, size, reps)
				if variant == "write" {
					baseline = tp
				}
				row = append(row, fmtRel(tp, baseline))
				res.Metric(fmt.Sprintf("%s/%s/%s", fsKind, fmtBytes(size), variant), tp)
				o.logf("fig7 %s %s %s: %.1f MB/s", fsKind, fmtBytes(size), variant, tp)
			}
			tab.Rows = append(tab.Rows, row)
		}
		res.Tables = append(res.Tables, tab)
	}
	return res
}

func runAppendVariant(o Options, fsKind kernel.FSKind, variant string, size uint64, reps int) float64 {
	iface := wl.Mmap
	prezero := false
	switch variant {
	case "write":
		iface = wl.Read
	case "daxvm":
		iface = wl.DaxVMTables
	case "daxvm+prezero":
		iface = wl.DaxVMTables
		prezero = true
	case "daxvm+prezero+nosync":
		iface = wl.DaxVMNoSync
		prezero = true
	}
	k := boot(o, iface, 2, false, fsKind, func(c *kernel.Config) {
		c.Prezero = prezero && iface.DaxVM
		if c.Prezero {
			c.DaxVMConfig.PrezeroBandwidthMBps = 4096
		}
	})
	proc := k.NewProc()
	if prezero {
		// Warm the pre-zero pool: churn files of the same total size and
		// let the daemon zero them ("pre-zero in advance", §V-B).
		k.Setup(func(t *sim.Thread) {
			for i := 0; i < reps+2; i++ {
				fd, _ := proc.Create(t, fmt.Sprintf("warm/%d", i))
				proc.Fallocate(t, fd, 0, size)
				proc.Close(t, fd)
				proc.Unlink(t, fmt.Sprintf("warm/%d", i))
			}
			if k.Dax != nil {
				k.Dax.DrainPrezero(t)
			}
		})
	}
	payload := make([]byte, size)
	var cycles uint64
	proc.Spawn("append", 0, 0, func(t *sim.Thread, c *cpu.Core) {
		start := t.Now()
		for i := 0; i < reps; i++ {
			path := fmt.Sprintf("a/%d", i)
			fd, err := proc.Create(t, path)
			if err != nil {
				panic(err)
			}
			if iface.Syscall {
				if err := proc.Append(t, fd, payload); err != nil {
					panic(err)
				}
			} else {
				// MM append: allocate blocks, map them, store payload.
				if err := proc.Fallocate(t, fd, 0, size); err != nil {
					panic(err)
				}
				var va mem.VirtAddr
				if iface.DaxVM {
					va, err = proc.DaxvmMmap(t, c, fd, 0, size, mem.PermRead|mem.PermWrite, iface.Flags())
				} else {
					va, err = proc.Mmap(t, c, fd, 0, size, mem.PermRead|mem.PermWrite, iface.MapFlags())
				}
				if err != nil {
					panic(err)
				}
				if err := proc.AccessMapped(t, c, va, size, kernel.KindNTWrite); err != nil {
					panic(err)
				}
				if iface.DaxVM {
					err = proc.DaxvmMunmap(t, c, va)
				} else {
					err = proc.Munmap(t, c, va, size)
				}
				if err != nil {
					panic(err)
				}
			}
			proc.Close(t, fd)
			proc.Unlink(t, path)
		}
		cycles = t.Now() - start
	})
	k.Run()
	return mbps(size*uint64(reps), cycles)
}

// runFTCost measures the append-latency tax of maintaining file tables.
func runFTCost(o Options) *Result {
	sizes := []uint64{4 << 10, 32 << 10, 256 << 10, 1 << 20}
	reps := 40
	if o.Quick {
		reps = 12
	}
	res := &Result{ID: "ftcost", Title: "Append latency overhead of DaxVM file-table maintenance"}
	tab := Table{Cols: []string{"append", "plain-cycles", "daxvm-cycles", "overhead"}}
	for _, size := range sizes {
		var lat [2]float64
		for i, daxvm := range []bool{false, true} {
			iface := wl.Read
			if daxvm {
				iface = wl.DaxVMTables
			}
			k := boot(o, iface, 1, false, kernel.Ext4, nil)
			proc := k.NewProc()
			payload := make([]byte, size)
			var cycles uint64
			proc.Spawn("ft", 0, 0, func(t *sim.Thread, c *cpu.Core) {
				start := t.Now()
				for r := 0; r < reps; r++ {
					path := fmt.Sprintf("f/%d", r)
					fd, _ := proc.Create(t, path)
					if err := proc.Append(t, fd, payload); err != nil {
						panic(err)
					}
					proc.Close(t, fd)
					proc.Unlink(t, path)
				}
				cycles = t.Now() - start
			})
			k.Run()
			lat[i] = float64(cycles) / float64(reps)
		}
		ovh := (lat[1] - lat[0]) / lat[0] * 100
		tab.Rows = append(tab.Rows, []string{
			fmtBytes(size), fmtF(lat[0]), fmtF(lat[1]), fmt.Sprintf("%+.1f%%", ovh),
		})
		res.Metric("overhead-pct/"+fmtBytes(size), ovh)
		o.logf("ftcost %s: %+.1f%%", fmtBytes(size), ovh)
	}
	res.Tables = append(res.Tables, tab)
	res.Note("paper: ~10%% worst case at 32 KiB, amortized to ~0 by 256 KiB")
	return res
}

// runStorage reports file-table storage tax on a source-tree corpus.
func runStorage(o Options) *Result {
	cfg := corpus.DefaultTree()
	if o.Quick {
		cfg.Files = 2000
	}
	// Quick is deliberately dropped: storage always boots the full-size
	// device (the quick knob shrinks the corpus above instead).
	k := boot(Options{Obs: o.Obs, Timeline: o.Timeline, Spans: o.Spans}, wl.DaxVMFull, 1, false, kernel.Ext4, nil)
	proc := k.NewProc()
	var tree *corpus.Tree
	k.Setup(func(t *sim.Thread) {
		tree = corpus.BuildTree(t, proc, cfg)
	})
	res := &Result{ID: "storage", Title: "DaxVM file-table storage overheads (source-tree corpus)"}
	pmemMB := float64(k.Dax.Stats.PMemTableBytes) / (1 << 20)
	dramMB := float64(k.Dax.Stats.DRAMTableBytes) / (1 << 20)
	treeMB := float64(tree.TotalBytes) / (1 << 20)
	res.Tables = append(res.Tables, Table{
		Cols: []string{"quantity", "value"},
		Rows: [][]string{
			{"corpus files", fmt.Sprintf("%d", len(tree.Paths))},
			{"corpus bytes", fmt.Sprintf("%.1f MB", treeMB)},
			{"PMem file tables", fmt.Sprintf("%.2f MB (%.2f%%)", pmemMB, pmemMB/treeMB*100)},
			{"DRAM file tables (all inodes cached)", fmt.Sprintf("%.2f MB", dramMB)},
		},
	})
	res.Metric("pmem-pct", pmemMB/treeMB*100)
	res.Metric("dram-mb", dramMB)
	res.Note("paper: 891 MB tree -> 25 MB PMem (2.8%%), up to 216 MB DRAM")
	return res
}
