package core

// Read-only views of controller state for external observers — the
// live control-plane daemon's /v1/state endpoint (internal/server)
// reads these between ticks. Views copy values out; nothing here
// mutates the controller or is safe to call concurrently with Step.

// Failed reports whether the server is crashed (failure injection).
func (s *Server) Failed() bool { return s.failed }

// NodeView is one internal (PMU) node's control state.
type NodeView struct {
	// Node is the tree node ID, Level its height (1 = just above the
	// servers).
	Node  int `json:"node"`
	Level int `json:"level"`
	// CP is the subtree's aggregated smoothed demand as this PMU knows
	// it; TP the budget granted from above.
	CP float64 `json:"cp"`
	TP float64 `json:"tp"`
	// Degraded marks an expired budget lease (autonomous decayed
	// allocation); Failed a crashed PMU.
	Degraded bool `json:"degraded,omitempty"`
	Failed   bool `json:"failed,omitempty"`
}

// PMUViews returns the state of every internal node, in tree-node-ID
// order (root first — topo.Build numbers breadth-first).
func (c *Controller) PMUViews() []NodeView {
	views := make([]NodeView, 0, len(c.Tree.Nodes)-len(c.Servers))
	for _, n := range c.Tree.Nodes {
		if n.IsLeaf() {
			continue
		}
		views = append(views, NodeView{
			Node: n.ID, Level: n.Level,
			CP: c.pmuCP[n.ID], TP: c.pmuTP[n.ID],
			Degraded: c.pmuDegraded[n.ID],
			Failed:   c.failedPMU[n.ID],
		})
	}
	return views
}

// DegradedCount returns how many nodes (servers and PMUs) currently
// run on an expired budget lease.
func (c *Controller) DegradedCount() int {
	n := 0
	for _, s := range c.Servers {
		if s.Degraded() {
			n++
		}
	}
	for _, node := range c.Tree.Nodes {
		if !node.IsLeaf() && c.pmuDegraded[node.ID] {
			n++
		}
	}
	return n
}

// FailedPMUCount returns how many internal nodes are currently crashed.
func (c *Controller) FailedPMUCount() int { return c.failedPMUCount }
