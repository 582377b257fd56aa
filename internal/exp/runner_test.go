package exp

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"testing"

	"willow/internal/dist"
)

// render flattens a Result into the bytes the CLI would print, so table
// and notes are compared exactly.
func render(r *Result) string {
	var sb strings.Builder
	sb.WriteString(r.Table.String())
	for _, n := range r.Notes {
		sb.WriteString("note: ")
		sb.WriteString(n)
		sb.WriteByte('\n')
	}
	return sb.String()
}

func runSequential(t *testing.T, opts Options) []*Result {
	t.Helper()
	out := make([]*Result, 0, len(IDs()))
	for _, id := range IDs() {
		res, err := registry[id].Run(opts)
		if err != nil {
			t.Fatalf("%s: %v", id, err)
		}
		out = append(out, res)
	}
	return out
}

// TestRunManyMatchesSequential is the determinism contract that makes
// the parallel engine safe to ship: every registered experiment renders
// byte-identically when run twice sequentially and when run under
// RunMany with 4 workers. Experiments registered with Timing embed
// wall-clock cells and are held to shape equality instead.
func TestRunManyMatchesSequential(t *testing.T) {
	opts := Options{Quick: true}
	seq1 := runSequential(t, opts)
	seq2 := runSequential(t, opts)
	par, err := RunMany(context.Background(), IDs(), Options{Quick: true, Workers: 4})
	if err != nil {
		t.Fatalf("RunMany: %v", err)
	}
	if len(par) != len(seq1) {
		t.Fatalf("RunMany returned %d results for %d ids", len(par), len(seq1))
	}
	for i, id := range IDs() {
		e, err := Get(id)
		if err != nil {
			t.Fatal(err)
		}
		if e.Timing {
			// Wall-clock cells vary; the grid must not.
			for run, r := range []*Result{seq2[i], par[i]} {
				if len(r.Table.Rows) != len(seq1[i].Table.Rows) ||
					len(r.Table.Columns) != len(seq1[i].Table.Columns) {
					t.Errorf("%s: run %d changed table shape", id, run)
				}
			}
			continue
		}
		a, b, c := render(seq1[i]), render(seq2[i]), render(par[i])
		if a != b {
			t.Errorf("%s: two sequential runs differ:\n--- first\n%s--- second\n%s", id, a, b)
		}
		if a != c {
			t.Errorf("%s: RunMany differs from sequential:\n--- sequential\n%s--- parallel\n%s", id, a, c)
		}
	}
}

// TestRunManyWorkerCountInvariance pins the stronger claim the runner
// documents: the rendered output of a replicated run is identical for
// any worker count.
func TestRunManyWorkerCountInvariance(t *testing.T) {
	ids := []string{"fig9", "fig5", "prop-binpack"}
	var want []string
	for _, workers := range []int{1, 2, 7} {
		res, err := RunMany(context.Background(), ids, Options{Quick: true, Replications: 4, Workers: workers})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		got := make([]string, len(res))
		for i, r := range res {
			got[i] = render(r)
		}
		if want == nil {
			want = got
			continue
		}
		for i := range got {
			if got[i] != want[i] {
				t.Errorf("workers=%d: %s renders differently:\n--- workers=1\n%s--- now\n%s",
					workers, ids[i], want[i], got[i])
			}
		}
	}
}

// TestReplicationSeedsIndependent asserts the SplitMix64-derived
// replication streams do not overlap: the first 256 draws of 16 streams
// are pairwise distinct (any shared prefix segment would collide), and
// derivation is a pure function of (base, index).
func TestReplicationSeedsIndependent(t *testing.T) {
	const streams, draws = 16, 256
	seeds := ReplicationSeeds(replicationBase, streams)
	if again := ReplicationSeeds(replicationBase, streams); fmt.Sprint(again) != fmt.Sprint(seeds) {
		t.Fatal("ReplicationSeeds is not deterministic")
	}
	seen := map[uint64]int{}
	for si, seed := range seeds {
		if seed == 0 {
			t.Fatalf("stream %d seeded with 0 (would fall back to the experiment default)", si)
		}
		src := dist.NewSource(seed)
		for d := 0; d < draws; d++ {
			v := src.Uint64()
			if prev, dup := seen[v]; dup {
				t.Fatalf("streams %d and %d share draw %#x — prefixes overlap", prev, si, v)
			}
			seen[v] = si
		}
	}
	if len(seen) != streams*draws {
		t.Fatalf("%d distinct draws, want %d", len(seen), streams*draws)
	}
}

// TestReplicationSeedOverride: Options.Seed deterministically re-bases
// the replication streams — same seed, same output; different seed,
// different output; and a 1-replication RunMany passes Seed through
// untouched so it stays byte-identical with Run.
func TestReplicationSeedOverride(t *testing.T) {
	run := func(seed uint64, reps int) string {
		res, err := RunMany(context.Background(), []string{"fig9"}, Options{Quick: true, Seed: seed, Replications: reps})
		if err != nil {
			t.Fatalf("seed=%d reps=%d: %v", seed, reps, err)
		}
		return render(res[0])
	}
	if run(42, 3) != run(42, 3) {
		t.Error("same Seed produced different replicated output")
	}
	if run(42, 3) == run(43, 3) {
		t.Error("different Seed produced identical replicated output")
	}
	seq, err := registry["fig9"].Run(Options{Quick: true, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	if got := run(7, 1); got != render(seq) {
		t.Errorf("1-replication RunMany altered the Seed path:\n--- Run\n%s--- RunMany\n%s", render(seq), got)
	}
	base := ReplicationSeeds(42, 3)
	if override := ReplicationSeeds(replicationBase, 3); fmt.Sprint(base) == fmt.Sprint(override) {
		t.Error("Seed base does not re-derive the stream")
	}
}

func TestRunManyAggregatesReplications(t *testing.T) {
	res, err := RunMany(context.Background(), []string{"fig9"}, Options{Quick: true, Replications: 5})
	if err != nil {
		t.Fatal(err)
	}
	tb := res[0].Table
	if !strings.Contains(tb.Title, "5 replications") {
		t.Errorf("aggregate title %q does not mention the replication count", tb.Title)
	}
	var hasMean, hasCI bool
	for _, c := range tb.Columns {
		hasMean = hasMean || strings.Contains(c, "(mean)")
		hasCI = hasCI || strings.Contains(c, "±95% CI")
	}
	if !hasMean || !hasCI {
		t.Errorf("aggregate columns %v lack mean/CI pair", tb.Columns)
	}
	single, err := registry["fig9"].Run(Options{Quick: true})
	if err != nil {
		t.Fatal(err)
	}
	if len(tb.Rows) != len(single.Table.Rows) {
		t.Errorf("aggregation changed row count: %d vs %d", len(tb.Rows), len(single.Table.Rows))
	}
	if len(res[0].Notes) == 0 || !strings.Contains(res[0].Notes[0], "replications") {
		t.Errorf("aggregate notes %v lack the replication summary", res[0].Notes)
	}
}

func TestRunManyUnknownID(t *testing.T) {
	if _, err := RunMany(context.Background(), []string{"fig9", "nope"}, Options{Quick: true}); err == nil {
		t.Error("unknown id accepted")
	}
}

func TestRunManyCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := RunMany(ctx, []string{"fig9"}, Options{Quick: true}); !errors.Is(err, context.Canceled) {
		t.Errorf("got %v, want context.Canceled", err)
	}
}
