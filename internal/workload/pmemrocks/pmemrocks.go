// Package pmemrocks models Pmem-RocksDB (Intel's PMem-optimized RocksDB)
// for the paper's Fig. 9c YCSB evaluation: an LSM store whose write-ahead
// log and SSTables live on the DAX file system and are accessed through
// memory mappings with user-space durability (non-temporal stores, no
// fsync). Inserts allocate fresh file blocks constantly, which on an aged
// ext4 image makes the baseline pay a MAP_SYNC journal commit on the
// first write fault of nearly every 4 KiB page — the effect DaxVM's
// 2 MiB-grained (or absent) dirty tracking removes.
package pmemrocks

import (
	"encoding/binary"
	"fmt"
	"sort"

	"daxvm/internal/cost"
	"daxvm/internal/cpu"
	"daxvm/internal/kernel"
	"daxvm/internal/mem"
	"daxvm/internal/sim"
	"daxvm/internal/workload/wl"
	"daxvm/internal/workload/ycsb"
)

// Config shapes the store and the workload.
type Config struct {
	// Mix is the YCSB workload.
	Mix ycsb.Mix
	// InitialRecords pre-loads the store (Run phases start warm).
	InitialRecords uint64
	// Ops is the number of workload operations.
	Ops int
	// Threads is the number of client threads.
	Threads int
	// RecordBytes is the value size (paper: 4 KiB records).
	RecordBytes uint64
	// MemtableBytes triggers a flush when exceeded.
	MemtableBytes uint64
	// Iface selects mmap / populate / daxvm / daxvm-nosync for the file
	// mappings.
	Iface wl.Iface
	// Seed fixes the request stream.
	Seed int64
}

// DefaultConfig mirrors Fig. 9c at simulator scale.
func DefaultConfig() Config {
	return Config{
		Mix:            ycsb.WorkloadA,
		InitialRecords: 20_000,
		Ops:            20_000,
		Threads:        8,
		RecordBytes:    4 << 10,
		MemtableBytes:  8 << 20,
		Iface:          wl.Mmap,
		Seed:           5,
	}
}

// Result reports throughput and store shape.
type Result struct {
	Ops         uint64
	Cycles      uint64
	Throughput  float64 // ops per virtual second
	Flushes     uint64
	Compactions uint64
	SSTables    int
	Verified    bool
}

// record location inside one SSTable.
type recLoc struct {
	key  uint64
	slot uint64
}

// sstable is one on-FS sorted run kept mapped for reads.
type sstable struct {
	path  string
	fd    int
	va    mem.VirtAddr
	index []recLoc // sorted by key
	bytes uint64
}

// store is the LSM engine.
type store struct {
	cfg  Config
	proc *kernel.Proc

	mu *sim.Mutex // RocksDB single-writer queue

	memtable map[uint64]uint64 // key -> generation stamp (payload simulated)
	memBytes uint64

	walFD  int
	walVA  mem.VirtAddr
	walOff uint64
	walCap uint64

	ssts   []*sstable // newest last
	nextID int

	flushes     uint64
	compactions uint64
}

// mapFile maps [0,size) of fd through the configured interface.
func (s *store) mapFile(t *sim.Thread, c *cpu.Core, fd int, size uint64, write bool) mem.VirtAddr {
	perm := mem.PermRead
	if write {
		perm |= mem.PermWrite
	}
	var va mem.VirtAddr
	var err error
	if s.cfg.Iface.DaxVM {
		va, err = s.proc.DaxvmMmap(t, c, fd, 0, size, perm, s.cfg.Iface.Flags())
	} else {
		va, err = s.proc.Mmap(t, c, fd, 0, size, perm, s.cfg.Iface.MapFlags())
	}
	if err != nil {
		panic(err)
	}
	return va
}

func (s *store) unmap(t *sim.Thread, c *cpu.Core, va mem.VirtAddr, size uint64) {
	var err error
	if s.cfg.Iface.DaxVM {
		err = s.proc.DaxvmMunmap(t, c, va)
	} else {
		err = s.proc.Munmap(t, c, va, size)
	}
	if err != nil {
		panic(err)
	}
}

// openWAL creates (or recycles) the write-ahead log. Pmem-RocksDB
// recycles WAL files to avoid re-allocating (and re-zeroing) blocks.
func (s *store) openWAL(t *sim.Thread, c *cpu.Core) {
	if s.walFD != 0 {
		// Recycle in place: just reset the write offset.
		s.walOff = 0
		return
	}
	fd, err := s.proc.Create(t, "rocks/wal")
	if err != nil {
		panic(err)
	}
	s.walCap = s.cfg.MemtableBytes + s.cfg.MemtableBytes/2
	if err := s.proc.Fallocate(t, fd, 0, s.walCap); err != nil {
		panic(err)
	}
	s.walFD = fd
	s.walVA = s.mapFile(t, c, fd, s.walCap, true)
	s.walOff = 0
}

// put inserts/updates a key: WAL append + memtable insert; flush when the
// memtable fills.
func (s *store) put(t *sim.Thread, c *cpu.Core, key uint64) {
	s.mu.Lock(t, cost.SemAcquireFast)
	rec := s.cfg.RecordBytes
	if s.walOff+rec > s.walCap {
		s.flushLocked(t, c)
	}
	// WAL append through the mapping with nt-stores (user durability).
	if err := s.proc.AccessMapped(t, c, s.walVA+mem.VirtAddr(s.walOff), rec, kernel.KindNTWrite); err != nil {
		panic(err)
	}
	s.walOff += rec
	s.memtable[key] = s.walOff
	s.memBytes += rec
	if s.memBytes >= s.cfg.MemtableBytes {
		s.flushLocked(t, c)
	}
	s.mu.Unlock(t, cost.SemReleaseFast)
}

// flushLocked writes the memtable as a new SSTable and recycles the WAL.
func (s *store) flushLocked(t *sim.Thread, c *cpu.Core) {
	if len(s.memtable) == 0 {
		s.walOff = 0
		return
	}
	keys := make([]uint64, 0, len(s.memtable))
	for k := range s.memtable {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })

	path := fmt.Sprintf("rocks/sst-%06d", s.nextID)
	s.nextID++
	fd, err := s.proc.Create(t, path)
	if err != nil {
		panic(err)
	}
	size := uint64(len(keys)) * s.cfg.RecordBytes
	if err := s.proc.Fallocate(t, fd, 0, size); err != nil {
		panic(err)
	}
	va := s.mapFile(t, c, fd, size, true)
	sst := &sstable{path: path, fd: fd, va: va, bytes: size}
	for i, k := range keys {
		slot := uint64(i)
		off := slot * s.cfg.RecordBytes
		if err := s.proc.AccessMapped(t, c, va+mem.VirtAddr(off), s.cfg.RecordBytes, kernel.KindNTWrite); err != nil {
			panic(err)
		}
		s.stampRecord(t, sst, slot, k)
		sst.index = append(sst.index, recLoc{key: k, slot: slot})
	}
	s.ssts = append(s.ssts, sst)
	s.memtable = make(map[uint64]uint64)
	s.memBytes = 0
	s.flushes++
	s.openWAL(t, c) // recycle
	if len(s.ssts) > 8 {
		s.compactLocked(t, c)
	}
}

// stampRecord writes the key into the record's first bytes on media so
// gets can verify end-to-end integrity.
func (s *store) stampRecord(t *sim.Thread, sst *sstable, slot, key uint64) {
	in := s.proc.Inode(sst.fd)
	off := slot * s.cfg.RecordBytes
	if blk, ok := s.proc.K.FS.BlockOf(t, in, off/mem.PageSize); ok {
		raw := s.proc.K.Dev.Bytes(mem.PhysAddr(blk*mem.PageSize+(off%mem.PageSize)), 8)
		binary.LittleEndian.PutUint64(raw, key)
	}
}

// checkRecord reads a key's record stamp from media for verification.
func (s *store) checkRecord(t *sim.Thread, sst *sstable, slot, key uint64) bool {
	in := s.proc.Inode(sst.fd)
	off := slot * s.cfg.RecordBytes
	if blk, ok := s.proc.K.FS.BlockOf(t, in, off/mem.PageSize); ok {
		var raw [8]byte
		s.proc.K.Dev.Load(mem.PhysAddr(blk*mem.PageSize+(off%mem.PageSize)), raw[:])
		return binary.LittleEndian.Uint64(raw[:]) == key
	}
	return false
}

// compactLocked merges the four oldest SSTables into one and deletes them
// (unlink feeds the pre-zero daemon under DaxVM).
func (s *store) compactLocked(t *sim.Thread, c *cpu.Core) {
	n := 4
	victims := s.ssts[:n]
	merged := map[uint64]bool{}
	var keys []uint64
	for _, v := range victims {
		for _, rl := range v.index {
			if !merged[rl.key] {
				merged[rl.key] = true
				keys = append(keys, rl.key)
			}
			// Read cost of merging.
			s.proc.AccessMapped(t, c, v.va+mem.VirtAddr(rl.slot*s.cfg.RecordBytes), s.cfg.RecordBytes, kernel.KindCopyOut)
		}
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
	path := fmt.Sprintf("rocks/sst-%06d", s.nextID)
	s.nextID++
	fd, err := s.proc.Create(t, path)
	if err != nil {
		panic(err)
	}
	size := uint64(len(keys)) * s.cfg.RecordBytes
	if err := s.proc.Fallocate(t, fd, 0, size); err != nil {
		panic(err)
	}
	va := s.mapFile(t, c, fd, size, true)
	out := &sstable{path: path, fd: fd, va: va, bytes: size}
	for i, k := range keys {
		off := uint64(i) * s.cfg.RecordBytes
		s.proc.AccessMapped(t, c, va+mem.VirtAddr(off), s.cfg.RecordBytes, kernel.KindNTWrite)
		s.stampRecord(t, out, uint64(i), k)
		out.index = append(out.index, recLoc{key: k, slot: uint64(i)})
	}
	// Delete the merged inputs.
	for _, v := range victims {
		s.unmap(t, c, v.va, v.bytes)
		s.proc.Close(t, v.fd)
		if err := s.proc.Unlink(t, v.path); err != nil {
			panic(err)
		}
	}
	s.ssts = append([]*sstable{out}, s.ssts[n:]...)
	s.compactions++
}

// get reads a key, returning whether it was found and verified.
func (s *store) get(t *sim.Thread, c *cpu.Core, key uint64) (found, verified bool) {
	t.Charge(cost.KernelListOp) // memtable probe
	if _, ok := s.memtable[key]; ok {
		return true, true
	}
	for i := len(s.ssts) - 1; i >= 0; i-- {
		sst := s.ssts[i]
		idx := sort.Search(len(sst.index), func(j int) bool { return sst.index[j].key >= key })
		t.Charge(sstIndexProbe)
		if idx < len(sst.index) && sst.index[idx].key == key {
			off := sst.index[idx].slot * s.cfg.RecordBytes
			if err := s.proc.AccessMapped(t, c, sst.va+mem.VirtAddr(off), s.cfg.RecordBytes, kernel.KindCopyOut); err != nil {
				panic(err)
			}
			return true, s.checkRecord(t, sst, sst.index[idx].slot, key)
		}
	}
	return false, true
}

// scan reads up to n records in key order starting at key.
func (s *store) scan(t *sim.Thread, c *cpu.Core, key uint64, n int) {
	if len(s.ssts) == 0 {
		return
	}
	sst := s.ssts[len(s.ssts)-1]
	idx := sort.Search(len(sst.index), func(j int) bool { return sst.index[j].key >= key })
	t.Charge(sstIndexProbe)
	for i := 0; i < n && idx+i < len(sst.index); i++ {
		off := sst.index[idx+i].slot * s.cfg.RecordBytes
		s.proc.AccessMapped(t, c, sst.va+mem.VirtAddr(off), s.cfg.RecordBytes, kernel.KindCopyOut)
	}
}

const sstIndexProbe = 600

// Run loads the store and executes the YCSB mix.
func Run(k *kernel.Kernel, cfg Config) Result {
	proc := k.NewProc()
	s := &store{
		cfg:      cfg,
		proc:     proc,
		mu:       sim.NewMutex(cost.SchedWakeup),
		memtable: make(map[uint64]uint64),
	}

	isLoad := cfg.Mix.Name == "load"
	// WAL creation (and the pre-load for run phases) happens outside the
	// measured window.
	k.Setup(func(t *sim.Thread) {
		c := k.Cpus.Cores[0]
		c.Bind(t)
		s.openWAL(t, c)
		if !isLoad {
			for key := uint64(0); key < cfg.InitialRecords; key++ {
				s.put(t, c, key)
			}
		}
		c.Unbind()
	})

	gen := make([]*ycsb.Generator, cfg.Threads)
	initial := cfg.InitialRecords
	if isLoad {
		initial = 0
	}
	for w := range gen {
		gen[w] = ycsb.NewGenerator(cfg.Mix, initial, cfg.Seed+int64(w))
	}

	verifiedAll := true
	var opsDone uint64
	for w := 0; w < cfg.Threads; w++ {
		w := w
		perThread := cfg.Ops / cfg.Threads
		proc.Spawn("ycsb", w, 0, func(t *sim.Thread, c *cpu.Core) {
			g := gen[w]
			for i := 0; i < perThread; i++ {
				op := g.Next()
				switch op.Kind {
				case ycsb.OpInsert, ycsb.OpUpdate:
					s.put(t, c, op.Key)
				case ycsb.OpRead:
					_, ok := s.get(t, c, op.Key)
					if !ok {
						verifiedAll = false
					}
				case ycsb.OpScan:
					s.scan(t, c, op.Key, op.ScanLen)
				case ycsb.OpRMW:
					s.get(t, c, op.Key)
					s.put(t, c, op.Key)
				}
				opsDone++
				t.Charge(clientFixedWork)
			}
		})
	}
	cycles := k.Run()
	return Result{
		Ops:         opsDone,
		Cycles:      cycles,
		Throughput:  float64(opsDone) * float64(cost.CyclesPerSecond) / float64(cycles),
		Flushes:     s.flushes,
		Compactions: s.compactions,
		SSTables:    len(s.ssts),
		Verified:    verifiedAll,
	}
}

const clientFixedWork = 1_200
