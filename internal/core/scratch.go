package core

// Scratch buffers for the supply allocation. Dividing a node's budget
// (computeChildAllocations) needs several float slices as long as the
// node's child count on every pass; since the tree shape is fixed at
// construction, the buffers are sized once and the hot path allocates
// nothing. A PMU above the racks owns its buffers, because its division
// stays in use while its children divide theirs. A rack's division is
// used up before the next rack divides, so each shard divides all its
// racks in one set of buffers, sized to its widest rack, which stays in
// cache across them.
type allocScratch struct {
	demands, caps, floors, wants, alloc, head, extra []float64
	active                                           []bool
}

func newAllocScratch(children int) *allocScratch {
	buf := make([]float64, 7*children)
	return &allocScratch{
		demands: buf[0*children : 1*children],
		caps:    buf[1*children : 2*children],
		floors:  buf[2*children : 3*children],
		wants:   buf[3*children : 4*children],
		alloc:   buf[4*children : 5*children],
		head:    buf[5*children : 6*children],
		extra:   buf[6*children : 7*children],
		active:  make([]bool, children),
	}
}

// waterfill distributes budget among recipients proportionally to
// weights, never exceeding caps, writing into dst (len(weights) long,
// zeroed first). Recipients whose proportional share exceeds their cap
// are clipped and the excess re-flows to the rest; zero-weight
// recipients receive nothing. active is scratch of the same length.
// It returns dst, which sums to at most budget (less only when every
// cap is hit).
func waterfill(dst []float64, budget float64, weights, caps []float64, active []bool) []float64 {
	n := len(weights)
	for i := range dst {
		dst[i] = 0
	}
	if budget <= 0 {
		return dst
	}
	activeWeight := 0.0
	for i := 0; i < n; i++ {
		active[i] = weights[i] > 0 && caps[i] > tolerance
		if active[i] {
			activeWeight += weights[i]
		}
	}
	remaining := budget
	for remaining > tolerance && activeWeight > 0 {
		clipped := false
		share := remaining / activeWeight
		nextRemaining := remaining
		nextWeight := activeWeight
		for i := 0; i < n; i++ {
			if !active[i] {
				continue
			}
			grant := share * weights[i]
			room := caps[i] - dst[i]
			if grant >= room-tolerance {
				// Cap hit: take the room, deactivate.
				dst[i] = caps[i]
				nextRemaining -= room
				nextWeight -= weights[i]
				active[i] = false
				clipped = true
			}
		}
		if !clipped {
			// No cap hit: hand out the proportional shares and finish.
			for i := 0; i < n; i++ {
				if active[i] {
					dst[i] += share * weights[i]
				}
			}
			return dst
		}
		remaining = nextRemaining
		activeWeight = nextWeight
	}
	return dst
}

// waterfillAlloc is the allocating convenience form used by tests.
func waterfillAlloc(budget float64, weights, caps []float64) []float64 {
	return waterfill(make([]float64, len(weights)), budget, weights, caps, make([]bool, len(weights)))
}
