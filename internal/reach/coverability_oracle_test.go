package reach

import (
	"context"
	"fmt"
	"sort"
	"strings"
	"testing"

	"repro/internal/modelgen"
	"repro/internal/petri"
)

// coverabilityOracle is the string-keyed Karp-Miller construction
// Coverability had before its markings moved into a flat arena: one
// boxed node per tree node, dedup through Marking.Key() strings. It is
// kept as the differential oracle the arena version is tested against.
func coverabilityOracle(ctx context.Context, net *petri.Net, opt Options) (unbounded []string, err error) {
	opt.defaults()
	if net.Interpreted() {
		return nil, fmt.Errorf("reach: interpreted nets are not supported by coverability")
	}
	for i := range net.Trans {
		if len(net.Trans[i].Inhib) > 0 {
			return nil, fmt.Errorf("reach: net %q has inhibitor arcs; Karp-Miller coverability is unsound for them", net.Name)
		}
	}
	type node struct {
		m      petri.Marking
		parent *node
	}
	enabled := func(t petri.TransID, m petri.Marking) bool {
		for _, a := range net.Trans[t].In {
			if m[a.Place] != Omega && m[a.Place] < a.Weight {
				return false
			}
		}
		return true
	}
	fire := func(t petri.TransID, m petri.Marking) petri.Marking {
		next := m.Clone()
		for _, a := range net.Trans[t].In {
			if next[a.Place] != Omega {
				next[a.Place] -= a.Weight
			}
		}
		for _, a := range net.Trans[t].Out {
			if next[a.Place] != Omega {
				next[a.Place] += a.Weight
			}
		}
		return next
	}
	covers := func(big, small petri.Marking) bool {
		for i := range big {
			if small[i] == Omega && big[i] != Omega {
				return false
			}
			if big[i] != Omega && big[i] < small[i] {
				return false
			}
		}
		return true
	}
	isOmega := make([]bool, net.NumPlaces())
	seen := make(map[string]bool)
	root := &node{m: net.InitialMarking()}
	work := []*node{root}
	seen[root.m.Key()] = true
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	count := 0
	for len(work) > 0 {
		n := work[len(work)-1]
		work = work[:len(work)-1]
		count++
		if count > opt.MaxStates {
			return nil, fmt.Errorf("reach: coverability exceeded %d states", opt.MaxStates)
		}
		if count%serialCheckEvery == 0 {
			if err := ctx.Err(); err != nil {
				return nil, err
			}
		}
		for ti := range net.Trans {
			t := petri.TransID(ti)
			if !enabled(t, n.m) {
				continue
			}
			next := fire(t, n.m)
			// Accelerate: if an ancestor is strictly covered, pump the
			// strictly larger places to Omega.
			for a := n; a != nil; a = a.parent {
				if covers(next, a.m) && !next.Equal(a.m) {
					for i := range next {
						if a.m[i] != Omega && next[i] != Omega && next[i] > a.m[i] {
							next[i] = Omega
							isOmega[i] = true
						}
					}
				}
			}
			key := next.Key()
			if seen[key] {
				continue
			}
			seen[key] = true
			work = append(work, &node{m: next, parent: n})
		}
	}
	for i, u := range isOmega {
		if u {
			unbounded = append(unbounded, net.Places[i].Name)
		}
	}
	sort.Strings(unbounded)
	return unbounded, nil
}

// twoUnboundedNet has two unbounded places, the second fed only from
// the first, so its Omega comes from firing out of an Omega place.
func twoUnboundedNet() *petri.Net {
	b := petri.NewBuilder("two_unbounded")
	b.Place("src", 1)
	b.Place("p", 0)
	b.Place("q", 0)
	b.Place("done", 0)
	b.Trans("make").In("src").Out("src").Out("p")
	b.Trans("move").In("p").Out("q", 2)
	b.Trans("stop").In("src").Out("done")
	return b.MustBuild()
}

// pumpCycleNet pumps a token into s once per turn of a two-transition
// cycle, so the strictly covered ancestor is a grandparent, never the
// parent: acceleration must walk the whole ancestor chain.
func pumpCycleNet() *petri.Net {
	b := petri.NewBuilder("pump_cycle")
	b.Place("p1", 1)
	b.Place("p2", 0)
	b.Place("s", 0)
	b.Trans("go").In("p1").Out("p2")
	b.Trans("back").In("p2").Out("p1").Out("s")
	return b.MustBuild()
}

// TestCoverabilityMatchesOracle is the differential test of the arena
// Karp-Miller construction: on bounded and unbounded nets, and when
// MaxStates is exceeded, it must return what the string-keyed oracle
// returns — the same unbounded places, or the same error.
func TestCoverabilityMatchesOracle(t *testing.T) {
	cases := []struct {
		name string
		net  *petri.Net
		opt  Options
	}{
		{"mutex", mutexNet(t), Options{}},
		{"forkjoin_2x1", modelgen.ForkJoin(2, 1, 1), Options{}},
		{"forkjoin_3x4", modelgen.ForkJoin(3, 4, 5), Options{}},
		{"forkjoin_4x3", modelgen.ForkJoin(4, 3, 3), Options{}},
		{"forkjoin_7x2", modelgen.ForkJoin(7, 2, 9), Options{}},
		{"pipeline_8x3", modelgen.DeepPipeline(8, 3, 1), Options{}},
		{"pipeline_12x4", modelgen.DeepPipeline(12, 4, 2), Options{}},
		{"unbounded_branch", unboundedBranchNet(), Options{}},
		{"two_unbounded", twoUnboundedNet(), Options{}},
		{"pump_cycle", pumpCycleNet(), Options{}},
		{"max_states_exceeded", modelgen.ForkJoin(3, 4, 5), Options{MaxStates: 40}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			want, werr := coverabilityOracle(context.Background(), tc.net, tc.opt)
			got, gerr := Coverability(context.Background(), tc.net, tc.opt)
			if fmt.Sprint(gerr) != fmt.Sprint(werr) {
				t.Fatalf("error %v, oracle %v", gerr, werr)
			}
			if strings.Join(got, ",") != strings.Join(want, ",") {
				t.Fatalf("unbounded %v, oracle %v", got, want)
			}
			t.Logf("unbounded %v, error %v", got, gerr)
		})
	}
}

// TestCoverabilityMaxStatesAtEveryCap pins the exact node count of the
// search: for every MaxStates up to the first cap that succeeds, both
// constructions fail or succeed together, so the arena build pops the
// same number of nodes as the oracle.
func TestCoverabilityMaxStatesAtEveryCap(t *testing.T) {
	for _, net := range []*petri.Net{
		mutexNet(t), modelgen.ForkJoin(3, 4, 5), unboundedBranchNet(), twoUnboundedNet(), pumpCycleNet(),
	} {
		for max := 1; ; max++ {
			opt := Options{MaxStates: max}
			want, werr := coverabilityOracle(context.Background(), net, opt)
			got, gerr := Coverability(context.Background(), net, opt)
			if fmt.Sprint(gerr) != fmt.Sprint(werr) || strings.Join(got, ",") != strings.Join(want, ",") {
				t.Fatalf("%s max=%d: got %v, %v; oracle %v, %v", net.Name, max, got, gerr, want, werr)
			}
			if werr == nil {
				t.Logf("%s: %d nodes", net.Name, max)
				break
			}
		}
	}
}
