// Kvboot: the paper's P-Redis availability experiment — boot a PMem
// key-value store and watch the warm-up curve: lazy mmap ramps slowly,
// MAP_POPULATE delays boot, DaxVM's pre-populated file tables give full
// throughput instantly (Fig. 9b in miniature).
package main

import (
	"fmt"

	"daxvm/internal/kernel"
	"daxvm/internal/workload/predis"
	"daxvm/internal/workload/wl"
)

func main() {
	cfg := predis.DefaultConfig()
	cfg.CacheBytes = 256 << 20
	cfg.Gets = 12_000
	cfg.Buckets = 8

	fmt.Println("P-Redis-like store: first gets after boot (throughput per slice):")
	for _, v := range []struct {
		name  string
		iface wl.Iface
	}{
		{"mmap (lazy)", wl.Mmap},
		{"mmap (populate)", wl.MmapPopulate},
		{"daxvm", wl.DaxVMNoSync},
	} {
		c := cfg
		c.Iface = v.iface
		k := kernel.Boot(kernel.Config{
			Cores:       2,
			DeviceBytes: c.CacheBytes*4 + (512 << 20), // aged to 70% utilization
			Age:         true,                         // fragmentation breaks huge-page shortcuts
			DaxVM:       v.iface.DaxVM,
		})
		r := predis.Run(k, c)
		k.Close()
		fmt.Printf("  %-16s boot %6.2f ms | ops/s per slice:", v.name,
			float64(r.SetupCycles)/2_700_000)
		for _, b := range r.Bucket {
			fmt.Printf(" %4.0fk", b/1000)
		}
		fmt.Println()
	}
}
