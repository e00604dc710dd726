package reach

import (
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"testing"

	"repro/internal/petri"
	"repro/internal/pipeline"
)

// timedGraphsIdentical asserts bit-identity between two timed graphs:
// same node ids, markings, timer vectors, edge order and flags.
func timedGraphsIdentical(t *testing.T, want, got *TimedGraph) {
	t.Helper()
	if len(want.Nodes) != len(got.Nodes) {
		t.Fatalf("nodes: %d != %d", len(got.Nodes), len(want.Nodes))
	}
	if want.Truncated != got.Truncated {
		t.Fatalf("truncated: %v != %v", got.Truncated, want.Truncated)
	}
	for i := range want.Nodes {
		w, g := want.Nodes[i], got.Nodes[i]
		if w.ID != g.ID || !w.Marking.Equal(g.Marking) {
			t.Fatalf("node %d: id/marking mismatch: %v != %v", i, g.Marking, w.Marking)
		}
		if w.key() != g.key() {
			t.Fatalf("node %d: state key %q != %q", i, g.key(), w.key())
		}
		if len(w.Out) != len(g.Out) {
			t.Fatalf("node %d: %d edges, want %d", i, len(g.Out), len(w.Out))
		}
		for j := range w.Out {
			if w.Out[j] != g.Out[j] {
				t.Fatalf("node %d edge %d: %+v != %+v", i, j, g.Out[j], w.Out[j])
			}
		}
	}
}

// timedTestNets are hand-built constant-delay nets covering the timed
// semantics: firing durations, enabling races, server caps, conflict
// over shared tokens, and (for the truncation case) unbounded growth.
// The Section 2 processor adds a large graph with wide frontiers,
// truncated and not.
func timedTestNets(t *testing.T) []struct {
	name string
	net  *petri.Net
	opt  Options
} {
	ring := func() *petri.Net {
		b := petri.NewBuilder("const_ring")
		b.Place("pa", 2)
		b.Place("pb", 0)
		b.Trans("ab").In("pa").Out("pb").FiringConst(2)
		b.Trans("ba").In("pb").Out("pa").FiringConst(3).EnablingConst(1)
		return b.MustBuild()
	}
	race := func() *petri.Net {
		b := petri.NewBuilder("enab_race")
		b.Place("p", 2)
		b.Place("won_fast", 0)
		b.Place("won_slow", 0)
		b.Place("back", 0)
		b.Trans("fast").In("p").Out("won_fast").EnablingConst(2)
		b.Trans("slow").In("p").Out("won_slow").EnablingConst(5)
		b.Trans("rf").In("won_fast").Out("back").FiringConst(1)
		b.Trans("rs").In("won_slow").Out("back").FiringConst(2)
		b.Trans("home").In("back").Out("p").FiringConst(3)
		return b.MustBuild()
	}
	servers := func() *petri.Net {
		b := petri.NewBuilder("single_server")
		b.Place("q", 3)
		b.Place("d", 0)
		b.Trans("serve").In("q").Out("d").FiringConst(4).Servers(1)
		b.Trans("recycle").In("d").Out("q").FiringConst(1)
		return b.MustBuild()
	}
	grow := func() *petri.Net {
		b := petri.NewBuilder("timed_unbounded")
		b.Place("src", 1)
		b.Place("a", 0)
		b.Place("b", 0)
		b.Trans("grow_a").In("src").Out("src").Out("a").FiringConst(1)
		b.Trans("grow_b").In("src").Out("src").Out("b").FiringConst(2)
		return b.MustBuild()
	}
	processor, err := pipeline.Processor(pipeline.DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	return []struct {
		name string
		net  *petri.Net
		opt  Options
	}{
		{"const_ring", ring(), Options{}},
		{"enab_race", race(), Options{}},
		{"single_server", servers(), Options{}},
		{"untimed_mutex", mutexNet(t), Options{}},
		{"truncated", grow(), Options{MaxStates: 200}},
		{"processor", processor, Options{}},
		{"processor_truncated", processor, Options{MaxStates: 1000}},
	}
}

// TestParallelBuildTimedMatchesSerial is the timed canonical-numbering
// property test: for every shard count the parallel BuildTimed must
// reproduce the serial FIFO oracle bit for bit — including after
// truncation, where both keep attaching edges between already-interned
// states.
func TestParallelBuildTimedMatchesSerial(t *testing.T) {
	for _, tc := range timedTestNets(t) {
		t.Run(tc.name, func(t *testing.T) {
			want, err := BuildTimedSerial(context.Background(), tc.net, tc.opt)
			if err != nil {
				t.Fatal(err)
			}
			t.Logf("%s: %d states, truncated=%v", tc.name, len(want.Nodes), want.Truncated)
			for _, shards := range []int{1, 2, 8} {
				opt := tc.opt
				opt.Shards = shards
				got, err := BuildTimed(context.Background(), tc.net, opt)
				if err != nil {
					t.Fatalf("shards=%d: %v", shards, err)
				}
				timedGraphsIdentical(t, want, got)
			}
		})
	}
}

// timedGraphDigest summarizes a timed graph by its node and edge
// counts and a SHA-256 over every node's id, marking, pending and
// enabled timers and edges, in node order, plus the truncation flag.
// It reads only exported fields, so it does not depend on the state
// key's encoding.
func timedGraphDigest(g *TimedGraph) (nodes, edges int, digest string) {
	h := sha256.New()
	var buf []byte
	put := func(v int64) { buf = binary.AppendVarint(buf, v) }
	for _, n := range g.Nodes {
		buf = buf[:0]
		put(int64(n.ID))
		put(int64(len(n.Marking)))
		for _, c := range n.Marking {
			put(int64(c))
		}
		for _, rs := range [][]Remaining{n.Pending, n.Enab} {
			put(int64(len(rs)))
			for _, r := range rs {
				put(int64(r.Trans))
				put(r.Left)
			}
		}
		put(int64(len(n.Out)))
		for _, e := range n.Out {
			put(int64(e.Trans))
			put(e.Delta)
			put(int64(e.To))
		}
		h.Write(buf)
		edges += len(n.Out)
	}
	if g.Truncated {
		h.Write([]byte{1})
	}
	return len(g.Nodes), edges, hex.EncodeToString(h.Sum(nil))
}

// pinnedTimedGraphs are the graphs of timedTestNets as the serial FIFO
// construction numbered them before the packed state key and the
// map-free enabled-set refresh: node and edge counts and
// timedGraphDigest. Both builds share the successor code, so this pins
// what the parallel-vs-serial test cannot: a change of semantics in
// that shared code.
var pinnedTimedGraphs = map[string]struct {
	nodes, edges int
	digest       string
}{
	"const_ring":          {13, 13, "916913b302192bc6cd5af4696a3a97000aa4504a99e8d9e0484ed7e3d0cf033a"},
	"enab_race":           {12, 12, "bfdaba5bb40c01abb9ed2e14abc013edf978af995951533b72ff0ebcc2734a87"},
	"single_server":       {7, 8, "8edfac2613c8a1c0c97edb726dc437643627ebb15fb1481484ebeac7f1da3110"},
	"untimed_mutex":       {3, 4, "6839410531007a37a80f5df182d13b1190ad2f4daec2290d34f437277b527abd"},
	"truncated":           {200, 245, "099540bc59a161d2097c3922b54533e67917f60a212703abbeaa7647619394b3"},
	"processor":           {3568, 5028, "3f48c93d5a38cef48e1ca2c8c0622953f6f53d1094e5183d6800534cc74c821b"},
	"processor_truncated": {1000, 1336, "00a3cbf8689e0273a9f7d21bc3db3d286ce1d36e042cfe5abcd7a6288d913b6d"},
}

// TestBuildTimedMatchesPinnedGraphs checks the serial and parallel
// timed builds against the pinned graphs.
func TestBuildTimedMatchesPinnedGraphs(t *testing.T) {
	for _, tc := range timedTestNets(t) {
		t.Run(tc.name, func(t *testing.T) {
			want, ok := pinnedTimedGraphs[tc.name]
			if !ok {
				t.Fatalf("no pinned graph for %s", tc.name)
			}
			serial, err := BuildTimedSerial(context.Background(), tc.net, tc.opt)
			if err != nil {
				t.Fatal(err)
			}
			opt := tc.opt
			opt.Shards = 2
			parallel, err := BuildTimed(context.Background(), tc.net, opt)
			if err != nil {
				t.Fatal(err)
			}
			for name, g := range map[string]*TimedGraph{"serial": serial, "parallel": parallel} {
				nodes, edges, digest := timedGraphDigest(g)
				if nodes != want.nodes || edges != want.edges || digest != want.digest {
					t.Errorf("%s: %d nodes, %d edges, digest %s; want %d, %d, %s",
						name, nodes, edges, digest, want.nodes, want.edges, want.digest)
				}
			}
		})
	}
}
