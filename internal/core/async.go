package core

import "willow/internal/topo"

// Asynchronous control plane: the paper's convergence analysis
// (Section V-A1) rests on update messages taking time to climb the
// hierarchy — δ-convergence — and on choosing Δ_D much larger than the
// propagation time ("assuming the value of Δ_D to be much larger than
// the actual value (say, 10 times hα) would avoid instabilities in
// decision making"). The synchronous controller realizes the δ ≪ Δ_D
// regime by construction; these knobs realize the other regimes so the
// rule can be tested empirically:
//
//   - Config.ReportLatency delays every upward demand report by that
//     many ticks per hierarchy level (a level-l PMU sees leaf demand
//     l·ReportLatency ticks old), modeled as a per-link FIFO pipe.
//   - Config.ReportLoss drops a link's report with the given probability
//     each tick ("links ... do not fail or do not suffer from prolonged
//     congestion" is the paper's assumption; this removes it). A lost
//     report leaves the parent acting on the previous value.
//
// With both zero reporting is prompt: the one aggregation pass
// (aggregate, state.go) reads every child directly — the no-pipe limit
// of a delayed link — and no pipe is created or drawn from.

// reportPipe delays values by a fixed number of ticks and repeats the
// last delivered value across losses.
type reportPipe struct {
	buf  []float64 // ring of in-flight values; len = latency
	head int
	last float64 // most recently pushed (possibly repeated on loss)
	out  float64 // value currently visible to the parent
	live bool
}

// push enqueues the child's current value (or repeats the previous one
// on loss) and returns the value now visible after the pipe's delay.
func (p *reportPipe) push(v float64, lost bool) float64 {
	if lost && p.live {
		v = p.last
	}
	p.last = v
	if !p.live {
		// First observation primes the whole pipe so startup is not a
		// burst of phantom zeros.
		for i := range p.buf {
			p.buf[i] = v
		}
		p.out = v
		p.live = true
	}
	if len(p.buf) == 0 {
		p.out = v
		return p.out
	}
	p.out = p.buf[p.head]
	p.buf[p.head] = v
	p.head = (p.head + 1) % len(p.buf)
	return p.out
}

// asyncEnabled reports whether the asynchronous machinery is active.
func (c *Controller) asyncEnabled() bool {
	return c.Cfg.ReportLatency > 0 || c.Cfg.ReportLoss > 0
}

// pipeFor returns (creating on demand) the report pipe of the link
// between n and its parent.
func (c *Controller) pipeFor(n *topo.Node) *reportPipe {
	p := c.pipes[n.ID]
	if p == nil {
		p = &reportPipe{buf: make([]float64, c.Cfg.ReportLatency)}
		c.pipes[n.ID] = p
	}
	return p
}

// pushReport sends child's current demand over the link to its parent
// and returns the value the parent receives: delayed by the link's pipe,
// or the previous value when the report is lost. A dead PMU's link is
// silent — its report counts as lost and draws nothing from the loss
// stream. aggregate calls it for every child of every live PMU, level by
// level in child order, while the asynchronous control plane is on.
func (c *Controller) pushReport(child *topo.Node) float64 {
	var current float64
	dead := false
	if child.IsLeaf() {
		current = c.hot.cp[child.ServerIndex]
	} else {
		current, dead = c.pmuCP[child.ID], c.failedPMU[child.ID]
	}
	lost := dead || (c.Cfg.ReportLoss > 0 && c.src.Float64() < c.Cfg.ReportLoss)
	return c.pipeFor(child).push(current, lost)
}

// viewCP returns the server's demand as seen by its parent PMU — the
// delayed, possibly loss-frozen value decisions are made on. In the
// synchronous regime it is simply the current smoothed demand.
func (c *Controller) viewCP(s *Server) float64 {
	if !c.asyncEnabled() {
		return s.CP()
	}
	p := c.pipes[s.Node.ID]
	if p == nil || !p.live {
		return s.CP()
	}
	return p.out
}

// viewDynamic returns the server's dynamic demand (above the static
// floor) as seen by its parent.
func (c *Controller) viewDynamic(s *Server) float64 {
	d := c.viewCP(s) - s.Power.Static
	if d < 0 {
		return 0
	}
	return d
}

// viewDeficit is Eq. 5 evaluated on the parent's (possibly stale) view.
func (c *Controller) viewDeficit(s *Server) float64 { return c.hot.deficit(s.idx, c.viewCP(s)) }

// viewSurplus is Eq. 6 evaluated on the parent's view.
func (c *Controller) viewSurplus(s *Server) float64 { return c.hot.surplus(s.idx, c.viewCP(s)) }
