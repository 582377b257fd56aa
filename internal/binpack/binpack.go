// Package binpack implements the bin-packing machinery behind Willow's
// deficit-to-surplus matching (Section IV-F of the paper).
//
// Matching excess power demands with the surpluses available on other
// nodes is variable-sized bin packing: the surpluses are bins of different
// sizes, the demands are items, and we want to consume as little surplus
// as possible. The paper adopts FFDLR (Friesen & Langston, SIAM
// J. Comput. 15(1), 1986): first-fit-decreasing into copies of the largest
// bin, followed by repacking each bin's contents into the smallest bin
// size that holds it. FFDLR runs in O(n log n) and guarantees a total
// capacity within (3/2)·OPT + 1 of optimal (in units where the largest
// bin has size 1).
//
// This package holds the classic formulation, with an unlimited supply
// of each bin size: FFDLR, and an exact branch-and-bound solver that the
// prop-binpack experiment and the property tests check the FFDLR bound
// against. The finite-bin matching the controller performs at each PMU,
// where each surplus is one bin used at most once, is core.planPlacement.
//
// First-fit queries use a tournament tree over open bins so packing n
// items costs O(n log n) rather than O(n²).
package binpack

import (
	"errors"
	"fmt"
	"math"
	"sort"
)

// epsilon absorbs floating-point dust when testing whether an item fits.
const epsilon = 1e-9

// Packing is the result of a variable-sized packing with unlimited bin
// supply.
type Packing struct {
	// Bins lists the bins actually used. Item values are indices into the
	// caller's item slice.
	Bins []PackedBin
	// TotalCapacity is the sum of the sizes of all used bins — the
	// objective minimized by variable-sized bin packing.
	TotalCapacity float64
}

// PackedBin is one used bin of a Packing.
type PackedBin struct {
	Size  float64
	Items []int
	Used  float64 // sum of packed item sizes
}

func validateInstance(items, sizes []float64) (maxSize float64, err error) {
	if len(sizes) == 0 {
		return 0, errors.New("binpack: no bin sizes given")
	}
	for _, s := range sizes {
		if s <= 0 {
			return 0, fmt.Errorf("binpack: non-positive bin size %v", s)
		}
		if s > maxSize {
			maxSize = s
		}
	}
	for _, it := range items {
		if it < 0 {
			return 0, fmt.Errorf("binpack: negative item size %v", it)
		}
		if it > maxSize+epsilon {
			return 0, fmt.Errorf("binpack: item of size %v exceeds largest bin %v", it, maxSize)
		}
	}
	return maxSize, nil
}

// FFDLR packs items into bins drawn from sizes (unlimited supply of each
// size), using the Friesen–Langston FFD-LR scheme the paper selects:
//
//  1. normalize so the largest bin has size 1,
//  2. first-fit-decreasing into bins of size 1,
//  3. repack each bin's contents into the smallest size that holds them.
//
// The returned packing uses total capacity at most (3/2)·OPT + 1 in
// normalized units. An error is returned when some item fits in no bin.
func FFDLR(items, sizes []float64) (Packing, error) {
	maxSize, err := validateInstance(items, sizes)
	if err != nil {
		return Packing{}, err
	}
	if len(items) == 0 {
		return Packing{}, nil
	}

	// Step 1+2: FFD into copies of the largest bin.
	order := decreasingOrder(items)
	tree := newFitTree(len(items)) // at most one new bin per item
	binItems := make([][]int, 0, len(items))
	binUsed := make([]float64, 0, len(items))
	for _, idx := range order {
		size := items[idx]
		b := tree.firstFit(size)
		if b == len(binItems) {
			// No open bin fits: open a new largest-size bin.
			binItems = append(binItems, nil)
			binUsed = append(binUsed, 0)
			tree.open(maxSize)
		}
		binItems[b] = append(binItems[b], idx)
		binUsed[b] += size
		tree.consume(b, size)
	}

	// Step 3 (the "LR" repack): shrink each bin to the smallest size that
	// holds its contents.
	sortedSizes := append([]float64(nil), sizes...)
	sort.Float64s(sortedSizes)
	var out Packing
	for b, its := range binItems {
		s := smallestFitting(sortedSizes, binUsed[b])
		out.Bins = append(out.Bins, PackedBin{Size: s, Items: its, Used: binUsed[b]})
		out.TotalCapacity += s
	}
	return out, nil
}

// smallestFitting returns the smallest size in the ascending slice sizes
// that is >= used (within epsilon). sizes must contain at least one such
// entry; FFDLR guarantees it because every bin's content fits the largest
// size.
func smallestFitting(sizes []float64, used float64) float64 {
	i := sort.SearchFloat64s(sizes, used-epsilon)
	if i == len(sizes) {
		// used exceeded every size by more than epsilon; clamp to largest.
		// Unreachable for well-formed FFDLR input, kept as a safety net.
		return sizes[len(sizes)-1]
	}
	return sizes[i]
}

// decreasingOrder returns item indices sorted by decreasing size
// (ties broken by index for determinism).
func decreasingOrder(items []float64) []int {
	order := make([]int, len(items))
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool {
		return items[order[a]] > items[order[b]]
	})
	return order
}

// Exact solves the variable-sized bin-packing instance optimally by
// branch and bound, minimizing total used capacity. It is exponential and
// intended only for the small instances used to validate heuristic bounds
// in tests (≲ 12 items). An error is returned for infeasible instances.
func Exact(items, sizes []float64) (Packing, error) {
	if _, err := validateInstance(items, sizes); err != nil {
		return Packing{}, err
	}
	if len(items) == 0 {
		return Packing{}, nil
	}

	sortedSizes := append([]float64(nil), sizes...)
	sort.Float64s(sortedSizes)
	// Deduplicate sizes: identical sizes are interchangeable.
	uniq := sortedSizes[:1]
	for _, s := range sortedSizes[1:] {
		if s > uniq[len(uniq)-1]+epsilon {
			uniq = append(uniq, s)
		}
	}

	order := decreasingOrder(items)
	totalItems := 0.0
	for _, it := range items {
		totalItems += it
	}

	// Start from the FFDLR solution as the incumbent upper bound.
	incumbent, err := FFDLR(items, sizes)
	if err != nil {
		return Packing{}, err
	}
	best := incumbent.TotalCapacity
	bestAssign := assignmentOf(incumbent, len(items))

	// Branch on items in decreasing order; each item goes into an
	// existing open bin or a fresh bin of each size that fits it.
	type bin struct {
		size, used float64
	}
	bins := make([]bin, 0, len(items))
	assign := make([]int, len(items)) // item -> bin index

	var dfs func(k int, capUsed float64)
	dfs = func(k int, capUsed float64) {
		// Lower bound: capacity already committed plus the items not yet
		// packed that exceed current total free space must open new bins;
		// use the simple volume bound: remaining item volume minus free
		// space in open bins, all of which needs fresh capacity.
		if capUsed >= best-epsilon {
			return
		}
		if k == len(order) {
			if capUsed < best-epsilon {
				best = capUsed
				copy(bestAssign, assign)
				// Record bin sizes implicitly via assignment; sizes are
				// recomputed in the reconstruction below.
			}
			return
		}
		remaining := 0.0
		for _, idx := range order[k:] {
			remaining += items[idx]
		}
		free := 0.0
		for _, b := range bins {
			free += b.size - b.used
		}
		if need := remaining - free; need > 0 && capUsed+need >= best-epsilon {
			return
		}

		idx := order[k]
		size := items[idx]
		// Try existing bins. Symmetry breaking: skip bins with identical
		// (size, used) signatures beyond the first.
		for b := range bins {
			if bins[b].used+size > bins[b].size+epsilon {
				continue
			}
			dup := false
			for p := 0; p < b; p++ {
				if math.Abs(bins[p].size-bins[b].size) < epsilon && math.Abs(bins[p].used-bins[b].used) < epsilon {
					dup = true
					break
				}
			}
			if dup {
				continue
			}
			bins[b].used += size
			assign[idx] = b
			dfs(k+1, capUsed)
			bins[b].used -= size
		}
		// Try opening a new bin of each distinct size that fits.
		for _, s := range uniq {
			if size > s+epsilon {
				continue
			}
			bins = append(bins, bin{size: s, used: size})
			assign[idx] = len(bins) - 1
			dfs(k+1, capUsed+s)
			bins = bins[:len(bins)-1]
		}
	}
	dfs(0, 0)

	return reconstruct(items, uniq, bestAssign), nil
}

// assignmentOf flattens a Packing into an item->bin index slice.
func assignmentOf(p Packing, n int) []int {
	assign := make([]int, n)
	for b, bin := range p.Bins {
		for _, it := range bin.Items {
			assign[it] = b
		}
	}
	return assign
}

// reconstruct rebuilds a Packing from an item->bin assignment, sizing each
// bin as the smallest available size that holds its contents.
func reconstruct(items []float64, ascSizes []float64, assign []int) Packing {
	used := map[int]float64{}
	members := map[int][]int{}
	for it, b := range assign {
		used[b] += items[it]
		members[b] = append(members[b], it)
	}
	binIDs := make([]int, 0, len(used))
	for b := range used {
		binIDs = append(binIDs, b)
	}
	sort.Ints(binIDs)
	var out Packing
	for _, b := range binIDs {
		s := smallestFitting(ascSizes, used[b])
		out.Bins = append(out.Bins, PackedBin{Size: s, Items: members[b], Used: used[b]})
		out.TotalCapacity += s
	}
	return out
}
