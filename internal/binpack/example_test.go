package binpack_test

import (
	"fmt"

	"willow/internal/binpack"
)

// ExampleFFDLR packs demands into variable-sized surpluses with the
// paper's chosen heuristic: first-fit decreasing into the largest bins,
// then repacking each bin into the smallest size that holds it.
func ExampleFFDLR() {
	demands := []float64{0.6, 0.3, 0.3, 0.2}
	surplusSizes := []float64{0.3, 0.6, 1.0}
	p, err := binpack.FFDLR(demands, surplusSizes)
	if err != nil {
		panic(err)
	}
	fmt.Printf("bins used: %d, total capacity: %.1f\n", len(p.Bins), p.TotalCapacity)
	for _, b := range p.Bins {
		fmt.Printf("  bin size %.1f holds %.1f\n", b.Size, b.Used)
	}

	// Output:
	// bins used: 2, total capacity: 1.6
	//   bin size 1.0 holds 0.9
	//   bin size 0.6 holds 0.5
}
