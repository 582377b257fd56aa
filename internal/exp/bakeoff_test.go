package exp

import (
	"context"
	"testing"
)

// TestBakeoffSmoke is the CI gate of the bake-off family: a quick run
// must complete with every policy row present, and the robust policies
// (integral, mpc — both clamped to the Eq. 3 envelope) must hold the
// true 70 °C cap under the medium machine+sensor chaos plan. runBakeoff
// itself errors on a non-willow violation, so a passing run IS the
// safety assertion; the explicit column check below keeps the table
// honest too.
func TestBakeoffSmoke(t *testing.T) {
	res, err := registry["bakeoff"].Run(Options{Quick: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Table.Rows) != len(bakeoffPolicies) {
		t.Fatalf("bakeoff table has %d rows, want %d", len(res.Table.Rows), len(bakeoffPolicies))
	}
	for i, row := range res.Table.Rows {
		if row[0] != bakeoffPolicies[i] {
			t.Errorf("row %d is %q, want %q", i, row[0], bakeoffPolicies[i])
		}
		if row[0] != "willow" && row[1] != "0" {
			t.Errorf("policy %s: %s true-temperature cap violations, want 0", row[0], row[1])
		}
	}
}

// TestBakeoffDeterminism pins the bake-off's determinism contract from
// the acceptance criteria: two identical invocations render byte-
// identical tables, and RunMany produces the same aggregated tables for
// any worker count — the bake-off steps its machines sequentially
// inside one experiment run, so worker-level concurrency cannot reorder
// anything observable.
func TestBakeoffDeterminism(t *testing.T) {
	opts := Options{Quick: true}
	a, err := registry["bakeoff"].Run(opts)
	if err != nil {
		t.Fatal(err)
	}
	b, err := registry["bakeoff"].Run(opts)
	if err != nil {
		t.Fatal(err)
	}
	if a.Table.String() != b.Table.String() {
		t.Error("two identical bakeoff runs rendered different tables")
	}

	ids := []string{"bakeoff", "bakeoff-stress"}
	many := func(workers int) []*Result {
		o := opts
		o.Workers = workers
		o.Replications = 2
		res, err := RunMany(context.Background(), ids, o)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	one := many(1)
	four := many(4)
	for i := range ids {
		if one[i].Table.String() != four[i].Table.String() {
			t.Errorf("%s: aggregated table differs between 1 and 4 workers", ids[i])
		}
	}
}
