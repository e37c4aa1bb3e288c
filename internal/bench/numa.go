package bench

import (
	"fmt"

	"daxvm/internal/kernel"
	"daxvm/internal/sim"
	"daxvm/internal/topo"
	"daxvm/internal/workload/corpus"
	"daxvm/internal/workload/wl"
)

func init() {
	registerTopo("numa", "NUMA placement: local vs remote vs interleaved PMem (topology model)", runNuma)
}

// numaPlacements is the sweep daxbench validates -placement against.
var numaPlacements = []string{"local", "remote", "interleave"}

// NumaSupportedPlacement reports whether the numa experiment understands
// a -placement override: the sweep labels plus any raw policy string the
// topology parser accepts ("bind:<n>", "local", "interleave").
func NumaSupportedPlacement(s string) bool {
	for _, p := range numaPlacements {
		if s == p {
			return true
		}
	}
	_, err := topo.ParsePolicy(s)
	return err == nil
}

// numaPolicy maps a sweep label to the placement policy string. The
// workload is pinned to core 0 (node 0), so "local" binds data to node 0
// and "remote" to node 1; "interleave" round-robins allocations. Raw
// policy strings ("bind:<n>") pass through unchanged rather than being
// silently rewritten to interleave.
func numaPolicy(label string, nodes int) string {
	switch label {
	case "local":
		return "bind:0"
	case "remote":
		if nodes < 2 {
			return "bind:0"
		}
		return "bind:1"
	case "interleave":
		return "interleave"
	default:
		return label
	}
}

// runNuma sweeps data placement on a multi-socket machine and reports
// sequential read(2) and mmap-paging bandwidth seen from node 0. The
// paper's machine is one socket; this experiment characterises the
// topology model the simulator adds on top: remote PMem pays the
// FAST '20 far-Optane surcharges, so local > interleave > remote.
func runNuma(o Options) *Result {
	nodes := o.Nodes
	if nodes == 0 {
		nodes = 2
	}
	placements := numaPlacements
	if o.Placement != "" {
		placements = []string{o.Placement}
	}
	if nodes == 1 {
		// Degenerate machine: every placement is local.
		placements = []string{"local"}
	}

	fileSize := uint64(2 << 20)
	files := 48
	if o.Quick {
		fileSize = 512 << 10
		files = 16
	}

	res := &Result{ID: "numa", Title: fmt.Sprintf("Data placement on a %d-node machine, workload on node 0", nodes)}
	tab := Table{Title: "bandwidth from node 0 (MB/s)", Cols: []string{"placement", "read", "paging"}}

	for _, label := range placements {
		policy := numaPolicy(label, nodes)
		row := []string{label}
		for _, path := range []struct {
			name  string
			iface wl.Iface
		}{
			{"read", wl.Read},
			{"paging", wl.Mmap},
		} {
			cfg := kernel.Config{
				Cores:          2 * nodes,
				Nodes:          nodes,
				DeviceBytes:    1 << 30,
				DRAMBytes:      1 << 30,
				FS:             kernel.Ext4,
				Placement:      policy,
				MountPlacement: policy,
				Obs:            o.Obs,
				Timeline:       o.Timeline,
				Spans:          o.Spans,
			}
			if o.Quick {
				cfg.DeviceBytes = 512 << 20
			}
			k := bootMachine(cfg)
			proc := k.NewProc()
			var paths []string
			k.Setup(func(t *sim.Thread) {
				paths = corpus.Fixed(t, proc, "numa", files, fileSize)
			})
			bytes, cycles := consumeOnce(k, path.iface, paths, 1, kernel.KindSum)
			mb := mbps(bytes, cycles)
			res.Metric(path.name+"/"+label, mb)
			row = append(row, fmtF(mb))
			o.logf("numa: %s/%s %.1f MB/s (%d bytes, %d cycles)", path.name, label, mb, bytes, cycles)
		}
		tab.Rows = append(tab.Rows, row)
	}
	res.Tables = append(res.Tables, tab)
	res.Note("workload pinned to node 0; remote PMem pays calibrated far-socket surcharges (see internal/cost)")
	return res
}
