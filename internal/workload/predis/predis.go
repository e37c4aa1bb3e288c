// Package predis models P-Redis (the NVSL persistent-memory port of
// Redis) for the paper's Fig. 9b availability experiment: the server's
// key-value cache and index hash table live in PMem files; at boot the
// server maps both and serves gets whose early latency is dominated by
// mapping-population faults — unless DaxVM attaches pre-populated file
// tables and throughput is maximal instantly.
package predis

import (
	"encoding/binary"
	"math/rand"

	"daxvm/internal/cost"
	"daxvm/internal/cpu"
	"daxvm/internal/kernel"
	"daxvm/internal/mem"
	"daxvm/internal/sim"
	"daxvm/internal/workload/wl"
)

// Config shapes the run.
type Config struct {
	// CacheBytes is the value-cache file size (paper: 60 GB; scaled).
	CacheBytes uint64
	// ValueBytes is the stored value size (paper: 16 KiB).
	ValueBytes uint64
	// Gets is the number of random get operations after boot.
	Gets int
	// Buckets is the time-series resolution for the warm-up curve.
	Buckets int
	// Iface: read is meaningless here; mmap / populate / daxvm.
	Iface wl.Iface
	// Seed fixes the key sequence.
	Seed int64
}

// DefaultConfig mirrors Fig. 9b at simulator scale.
func DefaultConfig() Config {
	return Config{
		CacheBytes: 1 << 30,
		ValueBytes: 16 << 10,
		Gets:       60_000,
		Buckets:    24,
		Iface:      wl.Mmap,
		Seed:       11,
	}
}

// Result is the boot curve.
type Result struct {
	// SetupCycles covers open+mmap (populate pays its pre-fault here —
	// the "10 s boot delay" of Fig. 9b).
	SetupCycles uint64
	// Bucket[i] is the throughput (ops per virtual second) of the i-th
	// slice of the get stream.
	Bucket []float64
	// TotalCycles is setup plus serving.
	TotalCycles uint64
	Verified    bool
}

// Run builds the PMem store, then boots the server and serves gets.
func Run(k *kernel.Kernel, cfg Config) Result {
	proc := k.NewProc()
	values := cfg.CacheBytes / cfg.ValueBytes

	k.Setup(func(t *sim.Thread) {
		// The store: one cache file whose v-th slot holds a value
		// stamped with its key, plus an index file (key -> slot).
		fd, err := proc.Create(t, "predis/cache")
		if err != nil {
			panic(err)
		}
		chunk := make([]byte, 1<<20)
		for off := uint64(0); off < cfg.CacheBytes; off += uint64(len(chunk)) {
			for v := uint64(0); v < uint64(len(chunk)); v += cfg.ValueBytes {
				binary.LittleEndian.PutUint64(chunk[v:], (off+v)/cfg.ValueBytes)
			}
			if err := proc.Append(t, fd, chunk); err != nil {
				panic(err)
			}
		}
		proc.Close(t, fd)
		idx, err := proc.Create(t, "predis/index")
		if err != nil {
			panic(err)
		}
		if err := proc.Fallocate(t, idx, 0, values*8); err != nil {
			panic(err)
		}
		proc.Close(t, idx)
	})

	res := Result{Bucket: make([]float64, cfg.Buckets)}
	proc.Spawn("predis", 0, 0, func(t *sim.Thread, c *cpu.Core) {
		// --- boot: map cache + index ---------------------------------
		bootStart := t.Now()
		cacheFD, _ := proc.Open(t, "predis/cache")
		idxFD, _ := proc.Open(t, "predis/index")
		var cacheVA, idxVA mem.VirtAddr
		var err error
		if cfg.Iface.DaxVM {
			cacheVA, err = proc.DaxvmMmap(t, c, cacheFD, 0, cfg.CacheBytes, mem.PermRead|mem.PermWrite, cfg.Iface.Flags()|daxBootFlags)
			if err == nil {
				idxVA, err = proc.DaxvmMmap(t, c, idxFD, 0, values*8, mem.PermRead|mem.PermWrite, cfg.Iface.Flags()|daxBootFlags)
			}
		} else {
			cacheVA, err = proc.Mmap(t, c, cacheFD, 0, cfg.CacheBytes, mem.PermRead|mem.PermWrite, cfg.Iface.MapFlags())
			if err == nil {
				idxVA, err = proc.Mmap(t, c, idxFD, 0, values*8, mem.PermRead|mem.PermWrite, cfg.Iface.MapFlags())
			}
		}
		if err != nil {
			panic(err)
		}
		res.SetupCycles = t.Now() - bootStart

		// --- serve gets ----------------------------------------------
		rng := rand.New(rand.NewSource(cfg.Seed))
		perBucket := cfg.Gets / cfg.Buckets
		verified := true
		dev := proc.K.Dev
		cacheIn := proc.Inode(cacheFD)
		for b := 0; b < cfg.Buckets; b++ {
			start := t.Now()
			for i := 0; i < perBucket; i++ {
				key := uint64(rng.Int63n(int64(values)))
				// Index probe: one random 8-byte load.
				if err := proc.AccessMapped(t, c, idxVA+mem.VirtAddr(key*8), 8, kernel.KindSum); err != nil {
					panic(err)
				}
				// Value fetch: copy the value out to the client buffer.
				off := key * cfg.ValueBytes
				if err := proc.AccessMapped(t, c, cacheVA+mem.VirtAddr(off), cfg.ValueBytes, kernel.KindCopyOut); err != nil {
					panic(err)
				}
				// Verify against media (the mapped data is the file).
				if blk, ok := proc.K.FS.BlockOf(t, cacheIn, off/mem.PageSize); ok {
					var raw [8]byte
					dev.Load(mem.PhysAddr(blk*mem.PageSize+(off%mem.PageSize)), raw[:])
					if binary.LittleEndian.Uint64(raw[:]) != key {
						verified = false
					}
				}
				t.Charge(getFixedWork)
			}
			dur := t.Now() - start
			if dur > 0 {
				res.Bucket[b] = float64(perBucket) * float64(cost.CyclesPerSecond) / float64(dur)
			}
		}
		res.Verified = verified
	})
	res.TotalCycles = k.Run()
	return res
}

// daxBootFlags: P-Redis manages durability in user space (nt-stores), so
// the DaxVM runs use nosync; mappings are long-lived (no ephemeral).
const daxBootFlags = 0

// getFixedWork is command parsing + reply assembly per get.
const getFixedWork = 2_500
