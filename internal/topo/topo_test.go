package topo

import (
	"strings"
	"testing"
	"testing/quick"
)

// paperTree builds the 4-level, 18-server configuration of Fig. 3.
func paperTree(t *testing.T) *Tree {
	t.Helper()
	tr, err := Build([]int{2, 3, 3})
	if err != nil {
		t.Fatal(err)
	}
	return tr
}

func TestBuildPaperConfiguration(t *testing.T) {
	tr := paperTree(t)
	if err := tr.Validate(); err != nil {
		t.Fatal(err)
	}
	if got := tr.NumServers(); got != 18 {
		t.Errorf("NumServers = %d, want 18", got)
	}
	if tr.Height != 3 {
		t.Errorf("Height = %d, want 3 (root at level 3, servers at 0)", tr.Height)
	}
	if got := len(tr.LevelNodes(2)); got != 2 {
		t.Errorf("level-2 nodes = %d, want 2", got)
	}
	if got := len(tr.LevelNodes(1)); got != 6 {
		t.Errorf("level-1 nodes = %d, want 6", got)
	}
	if got := len(tr.Nodes); got != 1+2+6+18 {
		t.Errorf("total nodes = %d, want 27", got)
	}
}

func TestBuildRejectsBadFanout(t *testing.T) {
	if _, err := Build(nil); err == nil {
		t.Error("empty fan-out accepted")
	}
	if _, err := Build([]int{2, 0}); err == nil {
		t.Error("zero fan-out accepted")
	}
	if _, err := Build([]int{-1}); err == nil {
		t.Error("negative fan-out accepted")
	}
}

func TestBuildSingleLevel(t *testing.T) {
	tr, err := Build([]int{3})
	if err != nil {
		t.Fatal(err)
	}
	if err := tr.Validate(); err != nil {
		t.Fatal(err)
	}
	if tr.NumServers() != 3 || tr.Height != 1 {
		t.Errorf("got %d servers height %d, want 3 servers height 1", tr.NumServers(), tr.Height)
	}
	for _, s := range tr.Servers {
		if s.Parent != tr.Root {
			t.Errorf("server %s parent is not root", s.Name())
		}
	}
}

func TestServerNamesAreOneBased(t *testing.T) {
	tr := paperTree(t)
	if got := tr.Servers[0].Name(); got != "server-1" {
		t.Errorf("first server named %q, want server-1", got)
	}
	if got := tr.Servers[17].Name(); got != "server-18" {
		t.Errorf("last server named %q, want server-18", got)
	}
}

func TestSiblings(t *testing.T) {
	tr := paperTree(t)
	s := tr.Servers[0]
	sib := s.Siblings()
	if len(sib) != 2 {
		t.Fatalf("server-1 has %d siblings, want 2", len(sib))
	}
	for _, x := range sib {
		if x == s {
			t.Error("Siblings includes the node itself")
		}
		if x.Parent != s.Parent {
			t.Error("sibling with different parent")
		}
	}
	if got := tr.Root.Siblings(); got != nil {
		t.Errorf("root has siblings: %v", got)
	}
}

func TestPathToRoot(t *testing.T) {
	tr := paperTree(t)
	path := tr.Servers[0].PathToRoot()
	if len(path) != 4 {
		t.Fatalf("path length %d, want 4", len(path))
	}
	if path[0] != tr.Servers[0] || path[3] != tr.Root {
		t.Error("path endpoints wrong")
	}
	for i := 1; i < len(path); i++ {
		if path[i] != path[i-1].Parent {
			t.Error("path link broken")
		}
	}
}

func TestLCA(t *testing.T) {
	tr := paperTree(t)
	s := tr.Servers
	// Servers 0,1,2 share a level-1 parent.
	if got := tr.LCA(s[0], s[1]); got != s[0].Parent {
		t.Errorf("LCA of siblings = %s, want their parent", got.Name())
	}
	// Servers 0 and 3 are in different level-1 groups under the same
	// level-2 node.
	if got := tr.LCA(s[0], s[3]); got.Level != 2 {
		t.Errorf("LCA(s0, s3) at level %d, want 2", got.Level)
	}
	// Servers 0 and 17 meet only at the root.
	if got := tr.LCA(s[0], s[17]); got != tr.Root {
		t.Errorf("LCA(s0, s17) = %s, want root", got.Name())
	}
	// Self and nil cases.
	if got := tr.LCA(s[5], s[5]); got != s[5] {
		t.Errorf("LCA(x, x) = %v, want x", got)
	}
	if got := tr.LCA(nil, s[0]); got != nil {
		t.Errorf("LCA(nil, x) = %v, want nil", got)
	}
	// Mixed levels: a server and its own grandparent.
	gp := s[0].Parent.Parent
	if got := tr.LCA(s[0], gp); got != gp {
		t.Errorf("LCA(server, grandparent) = %s, want grandparent", got.Name())
	}
}

func TestSwitchPathSiblings(t *testing.T) {
	tr := paperTree(t)
	path := tr.SwitchPath(tr.Servers[0], tr.Servers[1])
	if len(path) != 1 {
		t.Fatalf("sibling path has %d switches, want 1", len(path))
	}
	if path[0] != tr.Servers[0].Parent {
		t.Error("sibling path is not the shared parent switch")
	}
}

func TestSwitchPathCrossRack(t *testing.T) {
	tr := paperTree(t)
	// s0 under pmu-1.0 / pmu-2.0; s17 under pmu-1.5 / pmu-2.1: path is
	// pmu-1.0, pmu-2.0, dc, pmu-2.1, pmu-1.5 -> 5 switches.
	path := tr.SwitchPath(tr.Servers[0], tr.Servers[17])
	if len(path) != 5 {
		t.Fatalf("cross-tree path has %d switches, want 5", len(path))
	}
	if path[2] != tr.Root {
		t.Errorf("middle of cross-tree path is %s, want root", path[2].Name())
	}
	// Path endpoints adjacent to each server.
	if path[0] != tr.Servers[0].Parent || path[4] != tr.Servers[17].Parent {
		t.Error("path does not start/end at the endpoint parents")
	}
}

func TestSwitchPathSameNode(t *testing.T) {
	tr := paperTree(t)
	if got := tr.SwitchPath(tr.Servers[3], tr.Servers[3]); got != nil {
		t.Errorf("self path = %v, want nil", got)
	}
}

func TestHopCount(t *testing.T) {
	tr := paperTree(t)
	cases := []struct {
		a, b int
		want int
	}{
		{0, 1, 1},  // siblings
		{0, 3, 3},  // same level-2 group, different level-1
		{0, 17, 5}, // across the root
		{4, 4, 0},  // self
	}
	for _, c := range cases {
		if got := tr.HopCount(tr.Servers[c.a], tr.Servers[c.b]); got != c.want {
			t.Errorf("HopCount(s%d, s%d) = %d, want %d", c.a, c.b, got, c.want)
		}
	}
}

func TestIsLocal(t *testing.T) {
	tr := paperTree(t)
	if !IsLocal(tr.Servers[0], tr.Servers[2]) {
		t.Error("siblings not reported local")
	}
	if IsLocal(tr.Servers[0], tr.Servers[3]) {
		t.Error("non-siblings reported local")
	}
	if IsLocal(tr.Servers[0], tr.Servers[0]) {
		t.Error("node local to itself")
	}
	if IsLocal(nil, tr.Servers[0]) {
		t.Error("nil reported local")
	}
}

func TestStringRendersAllNodes(t *testing.T) {
	tr := paperTree(t)
	s := tr.String()
	if got := strings.Count(s, "\n"); got != len(tr.Nodes) {
		t.Errorf("String renders %d lines, want %d", got, len(tr.Nodes))
	}
	if !strings.Contains(s, "server-18") {
		t.Error("String missing server-18")
	}
}

func TestKindString(t *testing.T) {
	if KindPMU.String() != "pmu" || KindServer.String() != "server" {
		t.Error("Kind.String wrong")
	}
	if got := Kind(9).String(); got != "Kind(9)" {
		t.Errorf("unknown kind renders %q", got)
	}
}

// Property: for arbitrary small fan-outs the built tree validates, has the
// expected server count, and LCA/SwitchPath invariants hold for random
// server pairs.
func TestBuildQuick(t *testing.T) {
	f := func(rawLevels, rawA, rawB uint8) bool {
		depth := int(rawLevels%3) + 1
		fanout := make([]int, depth)
		want := 1
		for i := range fanout {
			fanout[i] = int(rawLevels>>(2*i))%3 + 1
			want *= fanout[i]
		}
		tr, err := Build(fanout)
		if err != nil {
			return false
		}
		if tr.Validate() != nil || tr.NumServers() != want {
			return false
		}
		a := tr.Servers[int(rawA)%want]
		b := tr.Servers[int(rawB)%want]
		lca := tr.LCA(a, b)
		if lca == nil {
			return false
		}
		path := tr.SwitchPath(a, b)
		if a == b {
			return len(path) == 0
		}
		// Path length = 2*(levels from server up to LCA) - 1.
		wantLen := 2*lca.Level - 1
		if len(path) != wantLen {
			return false
		}
		// All path nodes are internal.
		for _, n := range path {
			if n.IsLeaf() {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func BenchmarkBuild(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := Build([]int{4, 8, 16}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSwitchPath(b *testing.B) {
	tr, err := Build([]int{4, 8, 16})
	if err != nil {
		b.Fatal(err)
	}
	n := tr.NumServers()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tr.SwitchPath(tr.Servers[i%n], tr.Servers[(i*7+13)%n])
	}
}

func TestBuildIrregularTestbedShape(t *testing.T) {
	// The paper's testbed (Fig. 13): two level-1 switches, one over two
	// servers and one over a single server.
	tr, err := BuildIrregular([][]int{{2}, {2, 1}})
	if err != nil {
		t.Fatal(err)
	}
	if err := tr.Validate(); err != nil {
		t.Fatal(err)
	}
	if tr.NumServers() != 3 {
		t.Fatalf("servers = %d, want 3", tr.NumServers())
	}
	if got := len(tr.LevelNodes(1)); got != 2 {
		t.Errorf("level-1 nodes = %d, want 2", got)
	}
	// Servers 0 and 1 are siblings; server 2 sits alone.
	if !IsLocal(tr.Servers[0], tr.Servers[1]) {
		t.Error("servers 0 and 1 not siblings")
	}
	if got := tr.HopCount(tr.Servers[0], tr.Servers[2]); got != 3 {
		t.Errorf("hops(0, 2) = %d, want 3", got)
	}
}

func TestBuildIrregularValidation(t *testing.T) {
	if _, err := BuildIrregular(nil); err == nil {
		t.Error("empty spec accepted")
	}
	if _, err := BuildIrregular([][]int{{2}, {1}}); err == nil {
		t.Error("row width mismatch accepted")
	}
	if _, err := BuildIrregular([][]int{{0}}); err == nil {
		t.Error("zero child count accepted")
	}
}

func TestBuildMatchesIrregularEquivalent(t *testing.T) {
	a, err := Build([]int{2, 2})
	if err != nil {
		t.Fatal(err)
	}
	b, err := BuildIrregular([][]int{{2}, {2, 2}})
	if err != nil {
		t.Fatal(err)
	}
	if a.NumServers() != b.NumServers() || len(a.Nodes) != len(b.Nodes) {
		t.Error("Build and BuildIrregular disagree on equivalent specs")
	}
}

// TestInternalNodesPrecedeServers pins the ID layout Node.ID documents:
// internal nodes take the ID prefix and a server's ID is the internal
// count plus its ServerIndex, for regular and irregular trees alike.
func TestInternalNodesPrecedeServers(t *testing.T) {
	regular, err := Build([]int{2, 3, 3})
	if err != nil {
		t.Fatal(err)
	}
	irregular, err := BuildIrregular([][]int{{3}, {1, 4, 2}, {2, 1, 1, 3, 1, 2, 1}})
	if err != nil {
		t.Fatal(err)
	}
	for _, tr := range []*Tree{regular, irregular} {
		internal := len(tr.Nodes) - len(tr.Servers)
		for _, n := range tr.Nodes {
			if n.IsLeaf() != (n.ID >= internal) {
				t.Errorf("node %s (ID %d, leaf %v) on the wrong side of the %d-node internal prefix",
					n.Name(), n.ID, n.IsLeaf(), internal)
			}
		}
		for i, s := range tr.Servers {
			if s.ID != internal+i {
				t.Errorf("server %d has ID %d, want %d", i, s.ID, internal+i)
			}
		}
	}
}
