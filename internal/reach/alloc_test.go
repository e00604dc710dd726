package reach

import (
	"context"
	"math/bits"
	"testing"

	"repro/internal/modelgen"
)

// bfsLevels returns the number of BFS levels of g: one more than the
// largest shortest-path distance from node 0.
func bfsLevels(g *Graph) int {
	depth := make([]int, len(g.Nodes))
	for i := range depth {
		depth[i] = -1
	}
	depth[0] = 0
	levels := 1
	for q := []int{0}; len(q) > 0; q = q[1:] {
		for _, e := range g.Nodes[q[0]].Out {
			if depth[e.To] < 0 {
				depth[e.To] = depth[q[0]] + 1
				levels = max(levels, depth[e.To]+1)
				q = append(q, e.To)
			}
		}
	}
	return levels
}

// TestBuildAllocsPerLevel guards the allocation-free frontier: Build
// may allocate per level (worker goroutines, the level's edge array)
// and when a buffer doubles, but never per state or per successor.
func TestBuildAllocsPerLevel(t *testing.T) {
	net := modelgen.ForkJoin(3, 13, 1)
	opt := Options{Shards: 2, Store: StoreMem}
	g, err := Build(context.Background(), net, opt)
	if err != nil {
		t.Fatal(err)
	}
	states, levels := len(g.Nodes), bfsLevels(g)
	allocs := testing.AllocsPerRun(5, func() {
		g, err := Build(context.Background(), net, opt)
		if err != nil {
			t.Fatal(err)
		}
		g.Close()
	})
	if limit := float64(32 * levels); allocs > limit {
		t.Fatalf("Build: %v allocs for %d states in %d levels, want at most %v (32 per level)",
			allocs, states, levels, limit)
	}
	t.Logf("%v allocs, %d states, %d levels", allocs, states, levels)
}

// TestCoverabilityAllocs guards the arena Karp-Miller search: it
// allocates only when the arena, the index arrays or the dedup map grow
// geometrically, so with the log of the node count, never per node.
func TestCoverabilityAllocs(t *testing.T) {
	net := modelgen.ForkJoin(3, 13, 1)
	g, err := Build(context.Background(), net, Options{})
	if err != nil {
		t.Fatal(err)
	}
	states := len(g.Nodes)
	allocs := testing.AllocsPerRun(5, func() {
		if _, err := Coverability(context.Background(), net, Options{}); err != nil {
			t.Fatal(err)
		}
	})
	if limit := float64(16 * bits.Len(uint(states))); allocs > limit {
		t.Fatalf("Coverability: %v allocs for %d states, want at most %v (16 per bit of the state count)", allocs, states, limit)
	}
	t.Logf("%v allocs, %d states", allocs, states)
}
