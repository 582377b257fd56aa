package main

import (
	"context"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"willow/internal/dist"
	"willow/internal/telemetry"
)

// lines renders one JSONL event line per tick.
func lines(t *testing.T, ticks ...int) string {
	t.Helper()
	var b strings.Builder
	for _, tick := range ticks {
		line, err := telemetry.Encode(telemetry.Event{Tick: tick, Kind: telemetry.KindBudgetChange, Node: tick})
		if err != nil {
			t.Fatal(err)
		}
		b.Write(line)
		b.WriteByte('\n')
	}
	return b.String()
}

func TestAssemble(t *testing.T) {
	torn := `{"t":9,"k":`
	for _, tc := range []struct {
		name    string
		files   []string // fragment contents, oldest first
		ends    []int    // successor boundaries; the last is -1
		want    string
		wantErr string
	}{
		{
			name:  "killed fragment's torn tail is dropped",
			files: []string{lines(t, 1, 2) + torn, lines(t, 3, 4)},
			ends:  []int{3, -1},
			want:  lines(t, 1, 2, 3, 4),
		},
		{
			name:    "torn final fragment is an error",
			files:   []string{lines(t, 1), lines(t, 2) + torn},
			ends:    []int{2, -1},
			wantErr: "ends mid-line",
		},
		{
			name:  "events at or after the boundary go to the successor",
			files: []string{lines(t, 1, 2, 3, 4), lines(t, 3, 4, 5), lines(t, 5, 6)},
			ends:  []int{3, 5, -1},
			want:  lines(t, 1, 2, 3, 4, 5, 6),
		},
		{
			name:    "malformed contributed line is an error",
			files:   []string{lines(t, 1) + "not json\n", lines(t, 2)},
			ends:    []int{2, -1},
			wantErr: "bad event line",
		},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			var frags []frag
			for i, data := range tc.files {
				path := filepath.Join(dir, fmt.Sprintf("events_%d.jsonl", i))
				if err := os.WriteFile(path, []byte(data), 0o644); err != nil {
					t.Fatal(err)
				}
				frags = append(frags, frag{path: path, end: tc.ends[i]})
			}
			got, n, err := assemble(frags)
			if tc.wantErr != "" {
				if err == nil || !strings.Contains(err.Error(), tc.wantErr) {
					t.Fatalf("err = %v, want %q", err, tc.wantErr)
				}
				return
			}
			if err != nil {
				t.Fatal(err)
			}
			if string(got) != tc.want {
				t.Fatalf("assembled:\n%s\nwant:\n%s", got, tc.want)
			}
			if want := strings.Count(tc.want, "\n"); n != want {
				t.Fatalf("%d lines, want %d", n, want)
			}
		})
	}
}

func TestFirstDiff(t *testing.T) {
	for _, tc := range []struct{ a, b, want string }{
		{"abcdef", "abcXef", "first divergence at byte 3"},
		{"xbc", "abc", "first divergence at byte 0"},
		{"abc", "abcdef", "prefix of the other (at byte 3)"},
		{"abcdef", "abc", "prefix of the other (at byte 3)"},
	} {
		if got := firstDiff([]byte(tc.a), []byte(tc.b)); !strings.Contains(got, tc.want) {
			t.Errorf("firstDiff(%q, %q) = %q, want %q", tc.a, tc.b, got, tc.want)
		}
	}
}

func TestKillTargets(t *testing.T) {
	// The smoke cases' schedules: the kill stream is the seed's first fork.
	for _, tc := range []struct {
		seed   uint64
		cycles int
		want   []int
	}{
		{1, 5, []int{38, 97, 126, 172, 213}},
		{4, 5, []int{43, 140, 158, 202, 229}},
		{1, 3, []int{38, 126, 172}},
		{2, 3, []int{96, 172, 180}},
	} {
		got, err := killTargets(dist.NewSource(tc.seed).Fork(), 400, tc.cycles)
		if err != nil || !reflect.DeepEqual(got, tc.want) {
			t.Errorf("seed %d, %d cycles: %v, %v; want %v", tc.seed, tc.cycles, got, err, tc.want)
		}
	}
	for seed := uint64(0); seed < 200; seed++ {
		ticks, cycles := 40+int(seed), 1+int(seed%8)
		got, err := killTargets(dist.NewSource(seed), ticks, cycles)
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if len(got) != cycles {
			t.Fatalf("seed %d: %d targets, want %d", seed, len(got), cycles)
		}
		for i, tick := range got {
			if tick < ticks/20 || tick >= ticks*3/5 || (i > 0 && tick <= got[i-1]) {
				t.Fatalf("seed %d, %d ticks: targets %v not distinct, increasing and inside [%d, %d)",
					seed, ticks, got, ticks/20, ticks*3/5)
			}
		}
	}
	if _, err := killTargets(dist.NewSource(1), 20, 11); err == nil {
		t.Fatal("20 ticks accepted 11 kill cycles")
	}
}

// TestSpawnFailsFast points spawn at this test binary, which rejects
// willowd's -addr flag and exits 2: the harness must report that at
// once rather than poll until its deadline.
func TestSpawnFailsFast(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	h := &harness{
		ctx:     ctx,
		willowd: os.Args[0],
		dir:     t.TempDir(),
		tick:    5 * time.Millisecond,
		client:  &http.Client{Timeout: time.Second},
	}
	// The child prints the test binary's whole flag usage; keep it out
	// of the test log.
	devNull, err := os.OpenFile(os.DevNull, os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer devNull.Close()
	stderr := os.Stderr
	os.Stderr = devNull
	defer func() { os.Stderr = stderr }()

	start := time.Now()
	_, err = h.spawn(0)
	if err == nil || !strings.Contains(err.Error(), "exited before serving") {
		t.Fatalf("spawn = %v, want an exited-before-serving error", err)
	}
	if d := time.Since(start); d > 10*time.Second {
		t.Fatalf("spawn took %s to notice the exit", d)
	}
}
