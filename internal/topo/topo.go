// Package topo models the hierarchical structure of a data center as used
// by Willow's multi-level power control (Section IV-A, Fig. 1/3 of the
// paper): a tree of power management units (PMUs) whose leaves are
// servers.
//
// The paper's evaluation mirrors the switch topology onto the PMU
// hierarchy (Fig. 8 against Fig. 3): every internal PMU node has an
// associated switch that connects its children, so level-1 switches sit
// directly above the servers, level-2 switches above those, and so on.
// Migration traffic between two servers traverses exactly the switches of
// the internal nodes on the tree path between them, which is how the
// controller attributes migration cost to switches (Figs. 10–12).
package topo

import (
	"fmt"
	"strings"
)

// Kind distinguishes the roles a tree node can play.
type Kind int

const (
	// KindPMU is an internal power-management node (data center, rack,
	// enclosure...). Every PMU also carries the switch connecting its
	// children in the mirrored network topology.
	KindPMU Kind = iota
	// KindServer is a leaf node hosting workload.
	KindServer
)

func (k Kind) String() string {
	switch k {
	case KindPMU:
		return "pmu"
	case KindServer:
		return "server"
	default:
		return fmt.Sprintf("Kind(%d)", int(k))
	}
}

// Node is one vertex of the hierarchy.
type Node struct {
	// ID is the dense index over all nodes, in BFS order from the root.
	// Every server sits at the deepest level, so every internal node's
	// ID is below every server's: the internal nodes are exactly the
	// prefix [0, len(Nodes)-len(Servers)), and a server's ID is that
	// count plus its ServerIndex. Per-switch state can therefore live in
	// a slice over the ID prefix. BFS numbers siblings consecutively, so
	// the servers under one level-1 node are consecutive in child order,
	// ServerIndex and ID.
	ID       int
	Kind     Kind  // PMU (internal) or server (leaf)
	Level    int   // 0 for servers, increasing toward the root
	Parent   *Node // nil for the root
	Children []*Node

	// ServerIndex is the dense index among servers (0-based, left to
	// right) for KindServer nodes, -1 otherwise. The paper numbers its
	// simulation servers 1–18 left to right; callers add 1 for display.
	ServerIndex int

	name string
}

// Name returns a human-readable identifier such as "dc", "pmu-1.0" or
// "server-17".
func (n *Node) Name() string { return n.name }

// IsLeaf reports whether the node is a server.
func (n *Node) IsLeaf() bool { return n.Kind == KindServer }

// Tree is a complete PMU hierarchy.
type Tree struct {
	Root    *Node
	Nodes   []*Node // all nodes, indexed by Node.ID
	Servers []*Node // leaves, indexed by Node.ServerIndex
	Height  int     // root level; servers are level 0
}

// Build constructs a hierarchy from a fan-out specification, given from
// the root downward: Build([]int{2, 3, 3}) yields a root with 2 children,
// each with 3 children, each with 3 server leaves — the 4-level, 18-server
// configuration the paper simulates (Fig. 3). The root's level equals
// len(fanout) and the leaves are servers at level 0.
func Build(fanout []int) (*Tree, error) {
	if len(fanout) == 0 {
		return nil, fmt.Errorf("topo: empty fan-out")
	}
	levels := make([][]int, len(fanout))
	width := 1
	for i, f := range fanout {
		if f < 1 {
			return nil, fmt.Errorf("topo: fan-out[%d] = %d, must be >= 1", i, f)
		}
		levels[i] = make([]int, width)
		for j := range levels[i] {
			levels[i][j] = f
		}
		width *= f
	}
	return BuildIrregular(levels)
}

// BuildIrregular constructs a hierarchy with per-node child counts:
// levels[d][i] is the number of children of the i-th node (left to
// right) at depth d. BuildIrregular([][]int{{2}, {2, 1}}) is the paper's
// testbed network (Fig. 13): a root over two level-1 switches, the first
// connecting two servers and the second one.
func BuildIrregular(levels [][]int) (*Tree, error) {
	if len(levels) == 0 {
		return nil, fmt.Errorf("topo: empty level specification")
	}
	width := 1
	for d, row := range levels {
		if len(row) != width {
			return nil, fmt.Errorf("topo: level %d has %d entries for %d nodes", d, len(row), width)
		}
		width = 0
		for i, f := range row {
			if f < 1 {
				return nil, fmt.Errorf("topo: levels[%d][%d] = %d, must be >= 1", d, i, f)
			}
			width += f
		}
	}
	height := len(levels)
	t := &Tree{Height: height}
	t.Root = &Node{Kind: KindPMU, Level: height, ServerIndex: -1, name: "dc"}
	t.Nodes = append(t.Nodes, t.Root)

	frontier := []*Node{t.Root}
	for depth, row := range levels {
		level := height - depth - 1
		var next []*Node
		for pi, parent := range frontier {
			for c := 0; c < row[pi]; c++ {
				child := &Node{
					Parent:      parent,
					Level:       level,
					ServerIndex: -1,
				}
				if level == 0 {
					child.Kind = KindServer
					child.ServerIndex = len(t.Servers)
					child.name = fmt.Sprintf("server-%d", child.ServerIndex+1)
					t.Servers = append(t.Servers, child)
				} else {
					child.Kind = KindPMU
					child.name = fmt.Sprintf("pmu-%d.%d", level, len(next))
				}
				child.ID = len(t.Nodes)
				t.Nodes = append(t.Nodes, child)
				parent.Children = append(parent.Children, child)
				next = append(next, child)
			}
		}
		frontier = next
	}
	return t, nil
}

// NumServers returns the number of leaf servers.
func (t *Tree) NumServers() int { return len(t.Servers) }

// LevelNodes returns all nodes at the given level, left to right.
func (t *Tree) LevelNodes(level int) []*Node {
	var out []*Node
	for _, n := range t.Nodes {
		if n.Level == level {
			out = append(out, n)
		}
	}
	return out
}

// LCA returns the lowest common ancestor of a and b.
func (t *Tree) LCA(a, b *Node) *Node {
	if a == nil || b == nil {
		return nil
	}
	for a.Level < b.Level {
		a = a.Parent
	}
	for b.Level < a.Level {
		b = b.Parent
	}
	for a != b {
		a = a.Parent
		b = b.Parent
	}
	return a
}

// SwitchPath returns the internal (PMU/switch) nodes traversed by traffic
// between servers a and b: every internal node on the tree path, i.e. the
// ancestors of each endpoint up to and including their LCA. For siblings
// the path is the single shared parent switch; for a == b it is empty.
// It builds the path, so the hot paths walk netsim's flattened per-server
// switch lists instead and tests keep it as their oracle.
func (t *Tree) SwitchPath(a, b *Node) []*Node {
	if a == b {
		return nil
	}
	lca := t.LCA(a, b)
	var path []*Node
	for cur := a.Parent; cur != lca; cur = cur.Parent {
		path = append(path, cur)
	}
	path = append(path, lca)
	// Descend side collected in reverse to keep path order a -> b.
	var down []*Node
	for cur := b.Parent; cur != lca; cur = cur.Parent {
		down = append(down, cur)
	}
	for i := len(down) - 1; i >= 0; i-- {
		path = append(path, down[i])
	}
	return path
}

// HopCount returns the number of switches traffic between a and b
// traverses — len(SwitchPath) — a convenient distance measure: 1 for
// siblings, 3 for servers two subtrees apart under a shared grandparent,
// and so on. It counts the levels each endpoint climbs to the LCA,
// which it shares, without building the path.
func (t *Tree) HopCount(a, b *Node) int {
	if a == b {
		return 0
	}
	return 2*t.LCA(a, b).Level - a.Level - b.Level - 1
}

// IsLocal reports whether servers a and b share a parent — the paper's
// "local migration" (Section IV-E): migrations between siblings are
// preferred because they touch a single switch and keep resource affinity.
func IsLocal(a, b *Node) bool {
	return a != nil && b != nil && a != b && a.Parent == b.Parent
}

// String renders the tree structure, one node per line, indented by depth.
// Intended for debugging and documentation output.
func (t *Tree) String() string {
	var sb strings.Builder
	var walk func(n *Node, depth int)
	walk = func(n *Node, depth int) {
		sb.WriteString(strings.Repeat("  ", depth))
		fmt.Fprintf(&sb, "%s (level %d, %s)\n", n.Name(), n.Level, n.Kind)
		for _, c := range n.Children {
			walk(c, depth+1)
		}
	}
	walk(t.Root, 0)
	return sb.String()
}

// Validate checks structural invariants: dense IDs, consistent parent and
// level links, servers exactly at level 0. It exists so fuzz/property
// tests can assert tree well-formedness cheaply.
func (t *Tree) Validate() error {
	if t.Root == nil {
		return fmt.Errorf("topo: nil root")
	}
	if t.Root.Level != t.Height {
		return fmt.Errorf("topo: root level %d != height %d", t.Root.Level, t.Height)
	}
	for i, n := range t.Nodes {
		if n.ID != i {
			return fmt.Errorf("topo: node %q has ID %d at index %d", n.Name(), n.ID, i)
		}
		if (n.Level == 0) != (n.Kind == KindServer) {
			return fmt.Errorf("topo: node %q level/kind mismatch", n.Name())
		}
		for _, c := range n.Children {
			if c.Parent != n {
				return fmt.Errorf("topo: child %q of %q has wrong parent", c.Name(), n.Name())
			}
			if c.Level != n.Level-1 {
				return fmt.Errorf("topo: child %q level %d under %q level %d", c.Name(), c.Level, n.Name(), n.Level)
			}
		}
	}
	for i, s := range t.Servers {
		if s.ServerIndex != i {
			return fmt.Errorf("topo: server %q index %d at slot %d", s.Name(), s.ServerIndex, i)
		}
	}
	return nil
}
