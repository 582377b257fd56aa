package binpack

import "sort"

// Item is a demand to be relocated: an indivisible unit of power demand
// (in Willow, one application/VM — Section IV-E notes migrations happen at
// application granularity and demands are never split).
type Item struct {
	ID   int
	Size float64
}

// Bin is one concrete surplus that can absorb demand. Unlike the
// unlimited-supply formulation, each Bin exists exactly once.
type Bin struct {
	ID       int
	Capacity float64
}

// Match is the result of packing items into finite bins.
type Match struct {
	// Assigned maps item ID -> bin ID for every item that found a home.
	Assigned map[int]int
	// Unplaced lists the items that fit in no bin, in decreasing size
	// order. Willow drops (sheds) these demands — Section IV-E: "If there
	// is no surplus that can satisfy the deficit in a node, the excess
	// demand is simply dropped."
	Unplaced []Item
	// Residual maps bin ID -> capacity left after the match.
	Residual map[int]float64
}

// MatchFFD packs items into the given finite bins with first-fit
// decreasing: items in decreasing size order, each into the first bin (in
// the caller's bin order) with room. Willow relies on the caller's bin
// ordering to express the locality preference: local (sibling) surpluses
// first, then non-local ones, so FFD's "first" bin is the most local one.
func MatchFFD(items []Item, bins []Bin) Match {
	return matchDecreasing(items, bins, pickFirstFit)
}

// MatchBFD packs items into finite bins with best-fit decreasing: each
// item goes into the fitting bin with the least leftover capacity. It is
// provided as an ablation alternative to MatchFFD; it ignores bin order
// and therefore the locality preference.
func MatchBFD(items []Item, bins []Bin) Match {
	return matchDecreasing(items, bins, pickBestFit)
}

// pickFirstFit returns the index of the first bin with room, or -1.
func pickFirstFit(remaining []float64, size float64) int {
	for i, r := range remaining {
		if r+epsilon >= size {
			return i
		}
	}
	return -1
}

// pickBestFit returns the index of the fitting bin with minimal slack,
// or -1.
func pickBestFit(remaining []float64, size float64) int {
	best := -1
	bestSlack := 0.0
	for i, r := range remaining {
		if r+epsilon < size {
			continue
		}
		slack := r - size
		if best == -1 || slack < bestSlack {
			best, bestSlack = i, slack
		}
	}
	return best
}

func matchDecreasing(items []Item, bins []Bin, pick func([]float64, float64) int) Match {
	order := make([]int, len(items))
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool {
		return items[order[a]].Size > items[order[b]].Size
	})

	remaining := make([]float64, len(bins))
	for i, b := range bins {
		remaining[i] = b.Capacity
	}

	m := Match{Assigned: make(map[int]int), Residual: make(map[int]float64)}
	for _, idx := range order {
		it := items[idx]
		if it.Size <= epsilon {
			// Zero-size demands need no capacity; place them in the first
			// bin if one exists so the caller still learns a location.
			if len(bins) > 0 {
				m.Assigned[it.ID] = bins[0].ID
			} else {
				m.Unplaced = append(m.Unplaced, it)
			}
			continue
		}
		b := pick(remaining, it.Size)
		if b == -1 {
			m.Unplaced = append(m.Unplaced, it)
			continue
		}
		remaining[b] -= it.Size
		m.Assigned[it.ID] = bins[b].ID
	}
	for i, b := range bins {
		m.Residual[b.ID] = remaining[i]
	}
	return m
}
