// Package workload_test runs end-to-end sanity checks of the application
// models at miniature scale.
package workload_test

import (
	"testing"

	"daxvm/internal/kernel"
	"daxvm/internal/workload/pmemrocks"
	"daxvm/internal/workload/predis"
	"daxvm/internal/workload/textsearch"
	"daxvm/internal/workload/webserver"
	"daxvm/internal/workload/wl"
	"daxvm/internal/workload/ycsb"

	"daxvm/internal/workload/corpus"
)

// boot boots cfg and closes the kernel when the test ends: nothing else
// returns its device's host memory. The cleanup holds the kernel until
// then, so a test that boots one kernel per interface boots each in a
// subtest of its own.
func boot(t *testing.T, cfg kernel.Config) *kernel.Kernel {
	k := kernel.Boot(cfg)
	t.Cleanup(k.Close)
	return k
}

func TestWebserverAllInterfaces(t *testing.T) {
	var results []float64
	for _, iface := range []wl.Iface{wl.Read, wl.Mmap, wl.MmapPopulate, wl.MmapLATR, wl.DaxVMAsync} {
		t.Run(iface.Name, func(t *testing.T) {
			k := boot(t, kernel.Config{Cores: 4, DeviceBytes: 512 << 20, DaxVM: iface.DaxVM})
			r := webserver.Run(k, webserver.Config{
				Threads: 4, PageBytes: 32 << 10, Pages: 32,
				RequestsPerThread: 50, Iface: iface, Seed: 1,
			})
			if r.Requests != 200 || r.Throughput <= 0 {
				t.Fatalf("%s: %+v", iface.Name, r)
			}
			results = append(results, r.Throughput)
		})
	}
	if t.Failed() {
		return
	}
	// DaxVM must beat baseline mmap.
	if results[4] <= results[1] {
		t.Fatalf("daxvm (%f) not faster than mmap (%f)", results[4], results[1])
	}
}

func TestTextSearchFindsExactlyPlantedNeedles(t *testing.T) {
	cfg := corpus.DefaultTree()
	cfg.Files = 400
	cfg.LargeFiles = 0
	want := 0
	for i := 0; i < cfg.Files; i += cfg.NeedleEvery {
		want++
	}
	for _, iface := range []wl.Iface{wl.Read, wl.DaxVMAsync} {
		t.Run(iface.Name, func(t *testing.T) {
			k := boot(t, kernel.Config{Cores: 2, DeviceBytes: 512 << 20, DaxVM: iface.DaxVM})
			r := textsearch.Run(k, textsearch.Config{Threads: 2, Tree: cfg, Iface: iface})
			if int(r.Matches) != want {
				t.Fatalf("%s found %d matches, want %d", iface.Name, r.Matches, want)
			}
		})
	}
}

func TestPredisVerifies(t *testing.T) {
	k := boot(t, kernel.Config{Cores: 1, DeviceBytes: 512 << 20, DaxVM: true})
	r := predis.Run(k, predis.Config{
		CacheBytes: 64 << 20, ValueBytes: 16 << 10,
		Gets: 2000, Buckets: 4, Iface: wl.DaxVMNoSync, Seed: 1,
	})
	if !r.Verified {
		t.Fatal("predis gets did not verify against media")
	}
	for _, b := range r.Bucket {
		if b <= 0 {
			t.Fatalf("empty bucket: %v", r.Bucket)
		}
	}
}

func TestPmemRocksLoadAndRun(t *testing.T) {
	for _, iface := range []wl.Iface{wl.Mmap, wl.DaxVMNoSync} {
		t.Run(iface.Name, func(t *testing.T) {
			k := boot(t, kernel.Config{Cores: 3, DeviceBytes: 1 << 30, DaxVM: iface.DaxVM, Prezero: iface.DaxVM})
			r := pmemrocks.Run(k, pmemrocks.Config{
				Mix: ycsb.WorkloadA, InitialRecords: 2000, Ops: 2000,
				Threads: 2, RecordBytes: 4 << 10, MemtableBytes: 2 << 20,
				Iface: iface, Seed: 2,
			})
			if !r.Verified {
				t.Fatalf("%s: reads did not verify", iface.Name)
			}
			if r.Flushes == 0 {
				t.Fatalf("%s: no memtable flushes", iface.Name)
			}
			if r.Throughput <= 0 {
				t.Fatalf("%s: %+v", iface.Name, r)
			}
		})
	}
}

func TestPmemRocksCompactionReclaims(t *testing.T) {
	k := boot(t, kernel.Config{Cores: 2, DeviceBytes: 1 << 30, DaxVM: true, Prezero: true})
	r := pmemrocks.Run(k, pmemrocks.Config{
		Mix: ycsb.WorkloadLoad, InitialRecords: 0, Ops: 12_000,
		Threads: 1, RecordBytes: 4 << 10, MemtableBytes: 2 << 20,
		Iface: wl.DaxVMNoSync, Seed: 3,
	})
	if r.Compactions == 0 {
		t.Fatalf("no compactions after %d inserts (%d flushes, %d ssts)", r.Ops, r.Flushes, r.SSTables)
	}
	// Compaction deletions feed the pre-zero daemon.
	if k.Dax.Prezero() == nil || k.Dax.Prezero().Stats.Intercepted == 0 {
		t.Fatal("compaction did not feed the pre-zero daemon")
	}
}
