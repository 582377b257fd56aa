package core

import (
	"testing"

	"willow/internal/power"
)

// fuzzBytes hands out fuzz input one byte at a time, then zeros.
type fuzzBytes []byte

func (b *fuzzBytes) next() int {
	if len(*b) == 0 {
		return 0
	}
	v := int((*b)[0])
	*b = (*b)[1:]
	return v
}

// FuzzPlacement drives the matcher the controller runs, planPlacement
// with pickTarget, on small random trees (at most 3 levels and 16
// servers) with asleep, draining and reduced servers, reduced PMUs, one
// failed PMU and ping-pong records, under each flag pair its callers
// use. It checks that every item is placed once or returned unplaced;
// that no target's working surplus ends below −tolerance and each ends
// at its start minus what it received; that no target is ineligible;
// that an unplaced item fits on no eligible target within its reach,
// judged by the final surpluses (surpluses only fall during a plan, so
// that check is exact); and that a second run returns the same plan.
func FuzzPlacement(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{2, 1, 2, 3, 40, 200, 2, 30, 20})
	f.Add([]byte{3, 1, 1, 3, 60, 100, 3, 50, 40, 30, 10, 150, 1, 20, 1, 2, 3, 4, 5, 6, 7, 0, 1, 1, 90, 80, 70, 60, 50, 40, 8, 0, 0, 1, 0, 2, 1, 3, 0})
	f.Add([]byte{2, 3, 3, 20, 100, 3, 59, 58, 57, 20, 100, 3, 10, 10, 10, 0, 0, 0, 0, 0, 0, 0, 0, 0, 3, 0, 0, 0, 0, 5, 127, 127, 127, 127, 127, 127, 127, 127, 127, 8, 1, 0, 2, 0, 3, 0, 4, 1, 5, 2, 7, 1, 1, 3, 2, 5, 3, 7, 0})
	f.Add([]byte{1, 3, 255, 0, 2, 9, 9, 255, 0, 3, 7, 7, 7, 255, 0, 1, 5, 4, 1, 0, 0, 0, 3, 64, 64, 64, 64, 4, 0, 0, 1, 0, 2, 1, 3, 2, 1, 0, 1, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		in := fuzzBytes(data)

		fanout := make([]int, 1+in.next()%3)
		servers := 1
		for i := range fanout {
			fo := 1 + in.next()%4
			for servers*fo > 16 {
				fo--
			}
			fanout[i] = fo
			servers *= fo
		}
		specs := make([]ServerSpec, servers)
		for i := range specs {
			static := float64(20 + in.next()%80)
			means := make([]float64, in.next()%4)
			for k := range means {
				means[k] = float64(1 + in.next()%60)
			}
			specs[i] = serverSpec(static, static+100+float64(in.next()%150), 0, means...)
		}
		cfg := quietCfg()
		cfg.LocalOnly = in.next()%4 == 0
		c := buildController(t, fanout, uniqueIDs(specs), power.Constant(1e6), cfg)

		for _, s := range c.Servers {
			switch in.next() % 8 {
			case 0:
				c.hot.asleep[s.idx] = true
			case 1:
				c.draining[s.idx] = true
			case 2:
				c.hot.reduced[s.idx] = true
			}
		}
		var pmus []int
		for _, n := range c.Tree.Nodes {
			if !n.IsLeaf() {
				pmus = append(pmus, n.ID)
				c.pmuReduced[n.ID] = in.next()%4 == 0
			}
		}
		if b := in.next(); b%2 == 1 {
			c.FailPMU(pmus[(b/2)%len(pmus)])
		}

		// Working surpluses go only to servers a caller would offer.
		start := (&surplusSet{}).reset(servers)
		for i, s := range c.Servers {
			if v := float64(in.next() % 128); c.receiverEligible(s) && v > tolerance {
				start.add(i, v)
			}
		}
		var items []item
		taken := map[int]bool{}
		for k := in.next() % 9; k > 0; k-- {
			src := c.Servers[in.next()%servers]
			if src.Apps.Len() == 0 {
				continue
			}
			a := src.Apps.Apps[in.next()%src.Apps.Len()]
			if !taken[a.ID] {
				taken[a.ID] = true
				items = append(items, item{app: a, src: src})
			}
		}
		window := c.Cfg.PingPongWindow
		for _, it := range items {
			if b := in.next(); b%2 == 1 {
				c.lastLeft[it.app.ID] = leftRecord{from: in.next() % servers, tick: c.tick - (b/2)%(2*window+1)}
			}
		}

		maxLevel := c.Tree.Height
		if c.Cfg.LocalOnly {
			maxLevel = 1
		}
		// reach is the highest level whose scope an item is offered.
		reach := func(it item) int {
			if c.failedPMUCount > 0 {
				return min(maxLevel, c.reachLimit(it.src.Node))
			}
			return maxLevel
		}
		// ineligible names why to may not receive it from a scope at
		// level, or returns "" when it may.
		ineligible := func(it item, to *Server, level int, ignoreReduced bool) string {
			if to == it.src {
				return "the item's source"
			}
			if !start.cand[to.idx] {
				return "not a candidate"
			}
			if rec, ok := c.lastLeft[it.app.ID]; ok && rec.from == to.idx && c.tick-rec.tick <= window {
				return "the server the app left inside Δf"
			}
			for n := to.Node.Parent; n != nil; n = n.Parent {
				if c.failedPMU[n.ID] {
					return "under a failed PMU"
				}
				if !ignoreReduced && n.Level < level && c.pmuReduced[n.ID] {
					return "below a reduced PMU under the placing scope"
				}
			}
			return ""
		}
		run := func(ignoreReduced, preferEfficient bool) ([]assignment, []item, []float64) {
			ws := &surplusSet{watts: append([]float64(nil), start.watts...), cand: start.cand}
			plan, rest := c.planPlacement(append([]item(nil), items...), ws, ignoreReduced, preferEfficient)
			return plan, rest, ws.watts
		}

		// (false, false) is migrateDemand's, (true, false) drainToSleep's
		// and (false, true) consolidate's.
		for _, flags := range [][2]bool{{false, false}, {true, false}, {false, true}} {
			ignoreReduced, preferEfficient := flags[0], flags[1]
			plan, rest, final := run(ignoreReduced, preferEfficient)

			seen := map[int]int{}
			want := append([]float64(nil), start.watts...)
			for _, a := range plan {
				seen[a.it.app.ID]++
				want[a.to.idx] -= a.it.app.Mean
				// The scope that placed it is the lowest that holds both.
				level := c.Tree.LCA(a.it.src.Node, a.to.Node).Level
				if level > reach(a.it) {
					t.Fatalf("%v: app %d placed at level %d, beyond its reach %d", flags, a.it.app.ID, level, reach(a.it))
				}
				if why := ineligible(a.it, a.to, level, ignoreReduced); why != "" {
					t.Fatalf("%v: app %d placed on server %d, which is %s", flags, a.it.app.ID, a.to.idx, why)
				}
			}
			for _, it := range rest {
				seen[it.app.ID]++
			}
			for _, it := range items {
				if seen[it.app.ID] != 1 {
					t.Fatalf("%v: app %d placed or returned %d times", flags, it.app.ID, seen[it.app.ID])
				}
			}
			if len(plan)+len(rest) != len(items) {
				t.Fatalf("%v: %d placed + %d unplaced of %d items", flags, len(plan), len(rest), len(items))
			}
			for i, v := range final {
				if v != want[i] {
					t.Fatalf("%v: server %d ends with surplus %v, want %v", flags, i, v, want[i])
				}
				if start.cand[i] && v < -tolerance {
					t.Fatalf("%v: server %d overfilled: surplus %v", flags, i, v)
				}
			}
			for _, it := range rest {
				for level := 1; level <= reach(it); level++ {
					scope := ancestorAt(it.src.Node, level)
					for _, to := range c.Servers {
						if ancestorAt(to.Node, level) == scope && ineligible(it, to, level, ignoreReduced) == "" &&
							final[to.idx]+tolerance >= it.app.Mean {
							t.Fatalf("%v: unplaced app %d (%v W) fits on server %d (%v W left) at level %d",
								flags, it.app.ID, it.app.Mean, to.idx, final[to.idx], level)
						}
					}
				}
			}

			plan2, rest2, _ := run(ignoreReduced, preferEfficient)
			if len(plan2) != len(plan) || len(rest2) != len(rest) {
				t.Fatalf("%v: second run placed %d and left %d, first %d and %d", flags, len(plan2), len(rest2), len(plan), len(rest))
			}
			for i := range plan {
				if plan2[i].it.app != plan[i].it.app || plan2[i].to != plan[i].to {
					t.Fatalf("%v: second run differs at assignment %d", flags, i)
				}
			}
			for i := range rest {
				if rest2[i].app != rest[i].app {
					t.Fatalf("%v: second run differs at unplaced item %d", flags, i)
				}
			}
		}
	})
}
