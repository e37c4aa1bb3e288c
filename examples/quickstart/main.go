// Quickstart: boot a simulated PMem machine with DaxVM, create a file,
// map it with daxvm_mmap (O(1) file-table attachment), touch it, and
// compare against the POSIX mmap path.
package main

import (
	"fmt"

	"daxvm"
)

func main() {
	sys := daxvm.NewSystem(daxvm.Config{
		Cores:       4,
		DeviceBytes: 512 << 20,
		EnableDaxVM: true,
	})
	defer sys.Close()
	p := sys.NewProcess()

	sys.Main(p, func(t *daxvm.Thread, c *daxvm.Core) {
		// Create a 1 MiB file through the (simulated) syscall interface.
		fd, err := p.Create(t, "data/hello")
		check(err)
		check(p.Append(t, fd, make([]byte, 1<<20)))

		// POSIX path: lazy mmap, demand faults on every page.
		start := t.Now()
		va, err := p.Mmap(t, c, fd, 0, 1<<20, daxvm.ReadOnly, daxvm.MapShared)
		check(err)
		check(p.AccessMapped(t, c, va, 1<<20, daxvm.AccessSum))
		check(p.Munmap(t, c, va, 1<<20))
		posixCycles := t.Now() - start

		// DaxVM path: O(1) attachment of the pre-populated file table.
		start = t.Now()
		va, err = p.DaxvmMmap(t, c, fd, 0, 1<<20, daxvm.ReadOnly,
			daxvm.MapEphemeral|daxvm.MapUnmapAsync)
		check(err)
		check(p.AccessMapped(t, c, va, 1<<20, daxvm.AccessSum))
		check(p.DaxvmMunmap(t, c, va))
		daxCycles := t.Now() - start

		fmt.Printf("reading 1 MiB once through each interface:\n")
		fmt.Printf("  POSIX mmap : %8d simulated cycles\n", posixCycles)
		fmt.Printf("  daxvm_mmap : %8d simulated cycles (%.2fx faster)\n",
			daxCycles, float64(posixCycles)/float64(daxCycles))

		check(p.Close(t, fd))
	})
	sys.Run()

	d := sys.K.Dax
	fmt.Printf("\nDaxVM stats: %d attach ops, %d 2MiB table fragments attached\n",
		d.Stats.AttachOps, d.Stats.AttachedChunks)
}

func check(err error) {
	if err != nil {
		panic(err)
	}
}
