// Package topo models the machine's NUMA topology: how many nodes
// (sockets) there are, which cores belong to which node, and the ACPI
// SLIT-style distance between nodes. It also defines the placement
// policies (local / interleave / bind:<n>) that allocators consult when
// choosing a node for new memory.
//
// The paper's testbed is a dual-socket Cascade Lake machine with Optane
// on both sockets; a Topology with Nodes()==1 reproduces the simulator's
// original flat machine exactly.
package topo

import (
	"fmt"
	"strconv"
	"strings"

	"daxvm/internal/mem"
)

// SLIT relative-distance values, matching the convention Linux reports
// in /sys/devices/system/node/node*/distance: local is normalized to 10,
// one QPI/UPI hop to 21. These are dimensionless ratios, not cycles.
const (
	DistanceLocal  = 10
	DistanceRemote = 21
)

// Topology is an immutable description of the machine's node layout.
type Topology struct {
	nodes        int
	coresPerNode int
}

// New builds a topology of n nodes with coresPerNode cores each. Cores
// are assigned to nodes in contiguous blocks: cores [0, coresPerNode)
// are node 0, the next block node 1, and so on, matching the usual
// BIOS enumeration on two-socket Xeons.
func New(nodes, coresPerNode int) *Topology {
	if nodes < 1 {
		panic(fmt.Sprintf("topo: invalid node count %d", nodes))
	}
	if coresPerNode < 1 {
		panic(fmt.Sprintf("topo: invalid cores-per-node %d", coresPerNode))
	}
	return &Topology{nodes: nodes, coresPerNode: coresPerNode}
}

// Single is the flat legacy machine: one node holding all cores.
func Single(cores int) *Topology { return New(1, cores) }

// Nodes returns the number of NUMA nodes.
func (tp *Topology) Nodes() int { return tp.nodes }

// Multi reports whether the machine has more than one node; nil
// receivers stand for the flat single-node machine.
func (tp *Topology) Multi() bool { return tp != nil && tp.nodes > 1 }

// NodeOfCore maps a core ID to its home node. Core IDs past the last
// node's block (possible when the core count does not divide evenly)
// land on the last node.
func (tp *Topology) NodeOfCore(core int) mem.NodeID {
	if tp == nil || core < 0 {
		return 0
	}
	n := core / tp.coresPerNode
	if n >= tp.nodes {
		n = tp.nodes - 1
	}
	return mem.NodeID(n)
}

// Distance returns the SLIT distance between two nodes.
func (tp *Topology) Distance(a, b mem.NodeID) int {
	if a == b {
		return DistanceLocal
	}
	return DistanceRemote
}

// Remote reports whether node b is remote from node a.
func (tp *Topology) Remote(a, b mem.NodeID) bool {
	return tp.Multi() && a != b
}

// PolicyKind selects how a placement policy picks nodes.
type PolicyKind uint8

const (
	// Local allocates on the requesting core's node (Linux default).
	Local PolicyKind = iota
	// Interleave round-robins allocations across all nodes.
	Interleave
	// Bind pins every allocation to one explicit node.
	Bind
)

// Policy is a memory-placement policy, selectable per process (page
// tables, DaxVM volatile tables) and per mount (file-block placement).
type Policy struct {
	Kind PolicyKind
	Node mem.NodeID // target node for Bind
}

// ParsePolicy parses "local", "interleave", or "bind:<n>".
func ParsePolicy(s string) (Policy, error) {
	switch {
	case s == "" || s == "local":
		return Policy{Kind: Local}, nil
	case s == "interleave":
		return Policy{Kind: Interleave}, nil
	case strings.HasPrefix(s, "bind:"):
		n, err := strconv.Atoi(strings.TrimPrefix(s, "bind:"))
		if err != nil || n < 0 || n > 255 {
			return Policy{}, fmt.Errorf("topo: bad bind node in %q", s)
		}
		return Policy{Kind: Bind, Node: mem.NodeID(n)}, nil
	default:
		return Policy{}, fmt.Errorf("topo: unknown placement policy %q (want local, interleave, or bind:<n>)", s)
	}
}

// MustParsePolicy is ParsePolicy for statically-known strings.
func MustParsePolicy(s string) Policy {
	p, err := ParsePolicy(s)
	if err != nil {
		panic(err)
	}
	return p
}

func (p Policy) String() string {
	switch p.Kind {
	case Interleave:
		return "interleave"
	case Bind:
		return fmt.Sprintf("bind:%d", p.Node)
	default:
		return "local"
	}
}

// Pick chooses the node for the next allocation. local is the
// requesting core's node; counter is the caller's interleave cursor,
// advanced on every Interleave pick so successive allocations rotate.
func (p Policy) Pick(tp *Topology, local mem.NodeID, counter *uint64) mem.NodeID {
	if !tp.Multi() {
		return 0
	}
	switch p.Kind {
	case Interleave:
		n := mem.NodeID(*counter % uint64(tp.Nodes()))
		*counter++
		return n
	case Bind:
		if int(p.Node) >= tp.Nodes() {
			return mem.NodeID(tp.Nodes() - 1)
		}
		return p.Node
	default:
		return local
	}
}
