package binpack

import (
	"math"
	"testing"
)

// FuzzFFDLR feeds arbitrary byte strings decoded as item/size lists and
// checks FFDLR either rejects the instance or returns a structurally
// valid packing. Run with `go test -fuzz=FuzzFFDLR ./internal/binpack`;
// the seed corpus executes in every regular test run.
func FuzzFFDLR(f *testing.F) {
	f.Add([]byte{10, 20, 30}, []byte{40, 100})
	f.Add([]byte{}, []byte{1})
	f.Add([]byte{255, 1, 128}, []byte{255})
	// Adversarial shapes surfaced by the parallel-harness audit: an empty
	// deficit list against no sizes, zero-capacity bins (filtered to an
	// empty size list), and an item larger than every bin size.
	f.Add([]byte{}, []byte{})
	f.Add([]byte{50}, []byte{0, 0, 0})
	f.Add([]byte{255}, []byte{1, 1})
	f.Add([]byte{1}, []byte{255, 0, 1})
	f.Fuzz(func(t *testing.T, rawItems, rawSizes []byte) {
		if len(rawItems) > 64 || len(rawSizes) > 8 {
			return // keep instances small enough to pack quickly
		}
		items := make([]float64, len(rawItems))
		for i, b := range rawItems {
			items[i] = float64(b) / 255
		}
		sizes := make([]float64, 0, len(rawSizes))
		for _, b := range rawSizes {
			if b > 0 {
				sizes = append(sizes, float64(b)/255)
			}
		}
		p, err := FFDLR(items, sizes)
		if err != nil {
			return // invalid instances must be rejected, not panic
		}
		// Valid packing invariants.
		seen := map[int]bool{}
		var total float64
		for _, b := range p.Bins {
			var used float64
			for _, it := range b.Items {
				if it < 0 || it >= len(items) {
					t.Fatalf("item index %d out of range", it)
				}
				if seen[it] {
					t.Fatalf("item %d packed twice", it)
				}
				seen[it] = true
				used += items[it]
			}
			if used > b.Size+1e-6 {
				t.Fatalf("bin overfilled: %v in %v", used, b.Size)
			}
			total += b.Size
		}
		if len(seen) != len(items) {
			t.Fatalf("packed %d of %d items", len(seen), len(items))
		}
		if math.Abs(total-p.TotalCapacity) > 1e-6 {
			t.Fatalf("capacity accounting off: %v vs %v", total, p.TotalCapacity)
		}
	})
}
