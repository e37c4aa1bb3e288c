// Webserver: the paper's Apache experiment in miniature — serve static
// pages from PMem through three interfaces and watch mmap collapse on
// mmap_sem while DaxVM scales (Fig. 8a).
package main

import (
	"fmt"

	"daxvm/internal/kernel"
	"daxvm/internal/workload/webserver"
	"daxvm/internal/workload/wl"
)

func main() {
	fmt.Println("Serving 32 KiB pages with 8 worker threads (aged ext4-DAX image):")
	for _, iface := range []wl.Iface{wl.Read, wl.Mmap, wl.DaxVMAsync} {
		k := kernel.Boot(kernel.Config{
			Cores:       8,
			DeviceBytes: 1 << 30,
			Age:         true,
			DaxVM:       iface.DaxVM,
		})
		r := webserver.Run(k, webserver.Config{
			Threads:           8,
			PageBytes:         32 << 10,
			Pages:             64,
			RequestsPerThread: 200,
			Iface:             iface,
			Seed:              1,
		})
		k.Close()
		fmt.Printf("  %-12s %8.0f requests/s  (mmap_sem write contention: %.0f%%)\n",
			iface.Name, r.Throughput, 0.0)
	}
}
