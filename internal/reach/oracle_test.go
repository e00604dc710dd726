package reach

// The serial constructions below are the bit-identity oracles of the
// sharded builds: Build and BuildTimed must reproduce their graphs —
// node numbering, edge order, markings, flags — for every shard count
// and store. They live in a test file because only tests call them.

import (
	"context"
	"fmt"

	"repro/internal/petri"
)

// BuildSerial is the plain serial BFS construction — the algorithm
// Build had before the sharded search, kept as the bit-identity oracle
// the parallel build is tested against. Markings are interned through
// Marking.Key() strings; nodes are processed with an index cursor (no
// queue-head reslicing, so the visited prefix can be collected) and
// construction stops the moment MaxStates is hit, exactly like Build.
// ctx is checked every serialCheckEvery nodes.
func BuildSerial(ctx context.Context, net *petri.Net, opt Options) (*Graph, error) {
	opt.defaults()
	if net.Interpreted() {
		return nil, fmt.Errorf("reach: net %q is interpreted (predicates/actions); reachability requires a plain net", net.Name)
	}
	store, err := newStateStore(opt, net.NumPlaces())
	if err != nil {
		return nil, err
	}
	g := &Graph{Net: net, store: store}
	done := false
	defer func() {
		if !done {
			g.Close()
		}
	}()
	index := make(map[string]int)
	m0 := net.InitialMarking()
	g.Nodes = append(g.Nodes, Node{ID: 0})
	g.store.Add(m0)
	index[m0.Key()] = 0
	var cur petri.Marking
	for id := 0; id < len(g.Nodes) && !g.Truncated; id++ {
		if id%serialCheckEvery == 0 {
			if err := ctx.Err(); err != nil {
				return nil, err
			}
			if err := g.store.Err(); err != nil {
				return nil, err
			}
		}
		cur = g.store.At(id, cur)
		m := cur
		for ti := range net.Trans {
			t := petri.TransID(ti)
			ok, err := net.Enabled(t, m, nil)
			if err != nil {
				return nil, err
			}
			if !ok {
				continue
			}
			next := m.Clone()
			net.Consume(t, next)
			net.Produce(t, next)
			if g.CapExceeded == "" {
				for pi, c := range next {
					if c > opt.BoundCap {
						g.CapExceeded = net.Places[pi].Name
						break
					}
				}
			}
			key := next.Key()
			nid, seen := index[key]
			if !seen {
				if len(g.Nodes) >= opt.MaxStates {
					g.Truncated = true
					break
				}
				nid = len(g.Nodes)
				g.Nodes = append(g.Nodes, Node{ID: nid})
				g.store.Add(next)
				index[key] = nid
			}
			g.Nodes[id].Out = append(g.Nodes[id].Out, Edge{Trans: t, To: nid})
		}
	}
	if err := g.store.Err(); err != nil {
		return nil, err
	}
	done = true
	return g, nil
}

// key returns the state's dedup key: appendKey's packed form.
func (n *TimedNode) key() string { return string(n.appendKey(nil)) }

// BuildTimedSerial is the plain serial FIFO construction — the
// algorithm BuildTimed had before the sharded search, kept as the
// bit-identity oracle the parallel build is tested against. ctx is
// checked every serialCheckEvery processed nodes.
func BuildTimedSerial(ctx context.Context, net *petri.Net, opt Options) (*TimedGraph, error) {
	opt.defaults()
	if err := timedValidate(net); err != nil {
		return nil, err
	}
	g := &TimedGraph{Net: net}
	index := make(map[string]int)

	intern := func(n *TimedNode) (int, bool) {
		k := n.key()
		if id, ok := index[k]; ok {
			return id, false
		}
		if len(g.Nodes) >= opt.MaxStates {
			g.Truncated = true
			return -1, false
		}
		n = n.clone()
		n.ID = len(g.Nodes)
		index[k] = n.ID
		g.Nodes = append(g.Nodes, n)
		return n.ID, true
	}

	root, err := timedRoot(net)
	if err != nil {
		return nil, err
	}
	if _, ok := intern(root); !ok && len(g.Nodes) == 0 {
		return nil, fmt.Errorf("reach: could not intern initial state")
	}
	var scratch TimedNode
	processed := 0
	for work := []int{0}; len(work) > 0; {
		if processed%serialCheckEvery == 0 {
			if err := ctx.Err(); err != nil {
				return nil, err
			}
		}
		processed++
		id := work[0]
		work = work[1:]
		node := g.Nodes[id]
		err := expandTimed(net, node, &scratch, func(s *TimedNode, label petri.TransID, delta petri.Time) {
			nid, fresh := intern(s)
			if nid < 0 {
				return
			}
			node.Out = append(node.Out, TimedEdge{Trans: label, Delta: delta, To: nid})
			if fresh {
				work = append(work, nid)
			}
		})
		if err != nil {
			return nil, err
		}
	}
	return g, nil
}
