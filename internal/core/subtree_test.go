package core

import (
	"fmt"
	"math"

	"willow/internal/topo"
)

// subtreeFloor is the recursive oracle for sumSubtrees' floors: the
// summed static power of awake servers beneath n, re-summed through the
// whole subtree on every call.
func (c *Controller) subtreeFloor(n *topo.Node) float64 {
	if n.IsLeaf() {
		s := c.Servers[n.ServerIndex]
		if s.Asleep() {
			return 0
		}
		return s.Power.Static
	}
	var sum float64
	for _, ch := range n.Children {
		sum += c.subtreeFloor(ch)
	}
	return sum
}

// subtreeCap is the recursive oracle for sumSubtrees' caps: the sum of
// the leaf hard caps beneath n (sleeping servers contribute nothing).
func (c *Controller) subtreeCap(n *topo.Node) float64 {
	if n.IsLeaf() {
		s := c.Servers[n.ServerIndex]
		if s.Asleep() {
			return 0
		}
		return s.HardCap(c.Cfg.ThermalWindow)
	}
	var sum float64
	for _, ch := range n.Children {
		sum += c.subtreeCap(ch)
	}
	return sum
}

// CheckSubtreeSums compares the sums left by the last sumSubtrees pass
// with the recursive oracle over the controller's current state, bit for
// bit. It is exported for the external oracle test, which needs
// internal/policy (an import cycle from inside package core).
func (c *Controller) CheckSubtreeSums() error {
	for _, n := range c.Tree.Nodes {
		if n.IsLeaf() {
			continue
		}
		if got, want := c.subCap[n.ID], c.subtreeCap(n); math.Float64bits(got) != math.Float64bits(want) {
			return fmt.Errorf("node %d: subtree cap %v, recursive oracle %v", n.ID, got, want)
		}
		if got, want := c.subFloor[n.ID], c.subtreeFloor(n); math.Float64bits(got) != math.Float64bits(want) {
			return fmt.Errorf("node %d: subtree floor %v, recursive oracle %v", n.ID, got, want)
		}
	}
	return nil
}
