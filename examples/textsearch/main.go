// Textsearch: the paper's ag experiment — grep a source-tree-like corpus
// for a needle through read(2) vs daxvm_mmap and verify both find exactly
// the planted matches (Fig. 9a in miniature).
package main

import (
	"fmt"

	"daxvm/internal/kernel"
	"daxvm/internal/workload/corpus"
	"daxvm/internal/workload/textsearch"
	"daxvm/internal/workload/wl"
)

func main() {
	tree := corpus.DefaultTree()
	tree.Files = 1500
	tree.LargeFiles = 1
	tree.LargeBytes = 8 << 20

	fmt.Printf("searching %d files for %q with 8 threads:\n", tree.Files, tree.Needle)
	for _, iface := range []wl.Iface{wl.Read, wl.Mmap, wl.DaxVMAsync} {
		k := kernel.Boot(kernel.Config{
			Cores:       8,
			DeviceBytes: 1 << 30,
			Age:         true,
			DaxVM:       iface.DaxVM,
		})
		r := textsearch.Run(k, textsearch.Config{Threads: 8, Tree: tree, Iface: iface})
		k.Close()
		fmt.Printf("  %-12s %8.1f MB/s scanned, %d matches\n", iface.Name, r.Throughput, r.Matches)
	}
}
