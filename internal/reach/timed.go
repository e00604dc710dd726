package reach

import (
	"context"
	"encoding/binary"
	"fmt"
	"runtime"
	"sync"

	"repro/internal/petri"
)

// TimeAdvance labels edges of the timed graph that advance the clock to
// the next event (completing any firings that become due) rather than
// starting a transition.
const TimeAdvance petri.TransID = -1

// TimedEdge is one edge of a timed reachability graph: either the start
// of a firing (Trans >= 0, Delta == 0) or a time advance (Trans ==
// TimeAdvance, Delta > 0).
type TimedEdge struct {
	Trans petri.TransID
	Delta petri.Time
	To    int
}

// TimedNode is one state of the timed graph [RP84]: a marking plus the
// remaining firing times of in-progress transitions and the remaining
// enabling times of enabled transitions. Only relative times appear, so
// behaviourally identical states merge regardless of absolute clock.
type TimedNode struct {
	ID      int
	Marking petri.Marking
	// Pending holds (transition, remaining firing time), sorted.
	Pending []Remaining
	// Enab holds (transition, remaining enabling time) for enabled
	// transitions, sorted by transition.
	Enab []Remaining
	Out  []TimedEdge
}

// Remaining pairs a transition with a remaining duration.
type Remaining struct {
	Trans petri.TransID
	Left  petri.Time
}

// Ripe reports whether some transition may start firing immediately.
func (n *TimedNode) Ripe() bool {
	for _, e := range n.Enab {
		if e.Left == 0 {
			return true
		}
	}
	return false
}

// appendKey appends the packed state key to dst: the marking (one
// uvarint per place), the pending count, the pending (transition,
// left) pairs, then the enabled pairs up to the end. Every node of one
// graph has the same number of places, so the key is injective.
func (n *TimedNode) appendKey(dst []byte) []byte {
	for _, c := range n.Marking {
		dst = binary.AppendUvarint(dst, uint64(c))
	}
	dst = binary.AppendUvarint(dst, uint64(len(n.Pending)))
	for _, p := range n.Pending {
		dst = binary.AppendUvarint(dst, uint64(p.Trans))
		dst = binary.AppendUvarint(dst, uint64(p.Left))
	}
	for _, e := range n.Enab {
		dst = binary.AppendUvarint(dst, uint64(e.Trans))
		dst = binary.AppendUvarint(dst, uint64(e.Left))
	}
	return dst
}

// TimedGraph is the timed reachability graph of a net whose delays are
// all constant.
type TimedGraph struct {
	Net       *petri.Net
	Nodes     []*TimedNode
	Truncated bool
}

// constDelay extracts a constant delay, rejecting distributions.
func constDelay(d petri.Delay, kind, trans string) (petri.Time, error) {
	if d == nil {
		return 0, nil
	}
	v, ok := d.Const()
	if !ok {
		return 0, fmt.Errorf("reach: %s time of %q is not constant; the timed graph requires deterministic delays", kind, trans)
	}
	return v, nil
}

// timedValidate rejects nets the timed construction cannot handle:
// interpreted nets and non-constant delays.
func timedValidate(net *petri.Net) error {
	if net.Interpreted() {
		return fmt.Errorf("reach: net %q is interpreted; the timed graph requires a plain net", net.Name)
	}
	for i := range net.Trans {
		if _, err := constDelay(net.Trans[i].Firing, "firing", net.Trans[i].Name); err != nil {
			return err
		}
		if _, err := constDelay(net.Trans[i].Enabling, "enabling", net.Trans[i].Name); err != nil {
			return err
		}
	}
	return nil
}

// timedRoot builds and interns node 0.
func timedRoot(net *petri.Net) (*TimedNode, error) {
	root := &TimedNode{Marking: net.InitialMarking()}
	if err := refreshEnab(net, root, nil, noRestart, 0); err != nil {
		return nil, err
	}
	return root, nil
}

// BuildTimed constructs the timed reachability graph. The construction
// follows the simulator's semantics exactly, but branches over every
// ripe transition where the simulator draws one at random; firing
// frequencies are therefore irrelevant here (except that frequency-0
// transitions never fire). Nets with non-constant delays, predicates or
// actions are rejected.
//
// Like Build, the search is a level-synchronized parallel BFS over
// opt.Shards goroutines: successor states are expanded in parallel,
// deduplicated in per-shard key maps, and committed sequentially in
// the exact (node, successor) order the serial FIFO construction
// visits them, so the graph is bit-identical to the serial FIFO
// construction (the oracle in the package tests) for any shard count —
// including after truncation, where both keep draining the frontier
// to add edges between already-interned states.
// ctx is checked at every level barrier.
func BuildTimed(ctx context.Context, net *petri.Net, opt Options) (*TimedGraph, error) {
	opt.defaults()
	if err := timedValidate(net); err != nil {
		return nil, err
	}
	shards := opt.Shards
	if shards <= 0 {
		shards = runtime.GOMAXPROCS(0)
	}
	g := &TimedGraph{Net: net}
	root, err := timedRoot(net)
	if err != nil {
		return nil, err
	}
	root.ID = 0
	g.Nodes = append(g.Nodes, root)

	// Per-shard dedup, keyed by the full state key. A state is owned by
	// shard hash(key)%shards.
	seen := make([]map[string]int32, shards)
	for i := range seen {
		seen[i] = make(map[string]int32)
	}
	k0 := root.appendKey(nil)
	seen[hashBytes(k0)%uint64(shards)][string(k0)] = 0

	// cand is one successor produced during frontier expansion; id/dup
	// are the dedup resolution, as in the untimed build. A successor
	// already committed in an earlier level resolves during expansion
	// and is never copied out of the worker's scratch node (node nil).
	type cand struct {
		node  *TimedNode
		key   string
		hash  uint64
		label petri.TransID
		delta petri.Time
		id    int32
		dup   int32
	}

	// Buffers reused across levels: per-worker candidates (in node
	// order, so their concatenation is the global order), successor and
	// key scratch, and per-shard dedup maps of the current level.
	var (
		errs     = make([]error, shards)
		outs     = make([][]cand, shards)
		scratch  = make([]TimedNode, shards)
		keyBufs  = make([][]byte, shards)
		pend     = make([]map[string]int32, shards)
		byShard  = make([][]int32, shards)
		nsucc    []int32 // successors per frontier node
		flat     []cand
		assigned []int32
	)
	// The per-level work runs through two closures made once; they read
	// the level bounds lo..hi and the worker chunk as the loop moves
	// them. expand is Phase A for worker w: expand its run of frontier
	// nodes. The node slice is read-only here; edges are attached in
	// Phase C.
	lo, hi, chunk := 0, 1, 0
	expand := func(w int) {
		out := outs[w][:0]
		a, b := lo+w*chunk, min(lo+(w+1)*chunk, hi)
		for id := a; id < b && errs[w] == nil; id++ {
			n0 := len(out)
			errs[w] = expandTimed(net, g.Nodes[id], &scratch[w], func(s *TimedNode, label petri.TransID, delta petri.Time) {
				key := s.appendKey(keyBufs[w][:0])
				keyBufs[w] = key
				c := cand{label: label, delta: delta, hash: hashBytes(key), id: -1, dup: -1}
				// The committed maps are only written in Phase C.
				if nid, ok := seen[c.hash%uint64(shards)][string(key)]; ok {
					c.id = nid
				} else {
					c.node, c.key = s.clone(), string(key)
				}
				out = append(out, c)
			})
			nsucc[id-lo] = int32(len(out) - n0)
		}
		outs[w] = out
	}
	// dedup is Phase B for shard w: resolve the successors still open
	// against earlier candidates of the level, in global order.
	dedup := func(w int) {
		if len(byShard[w]) == 0 {
			return
		}
		if pend[w] == nil {
			pend[w] = make(map[string]int32)
		}
		clear(pend[w])
		for _, seq := range byShard[w] {
			c := &flat[seq]
			if ps, ok := pend[w][c.key]; ok {
				c.dup = ps
				continue
			}
			pend[w][c.key] = int32(seq)
		}
	}
	for lo < hi {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		width := hi - lo
		// Phase A — expand each frontier node.
		if cap(nsucc) < width {
			nsucc = make([]int32, width)
		}
		nsucc = nsucc[:width]
		chunk = (width + shards - 1) / shards
		eachWorker(shards, expand)
		for _, err := range errs {
			if err != nil {
				return nil, err
			}
		}

		// Flatten to the global candidate order — (node asc, successor
		// asc), the order the serial construction interns states in.
		flat = flat[:0]
		for w := 0; w < shards; w++ {
			flat = append(flat, outs[w]...)
		}
		for w := range byShard {
			byShard[w] = byShard[w][:0]
		}
		for seq := range flat {
			if flat[seq].id < 0 {
				s := flat[seq].hash % uint64(shards)
				byShard[s] = append(byShard[s], int32(seq))
			}
		}

		// Phase B — dedup per shard.
		eachWorker(shards, dedup)

		// Phase C — commit sequentially in global candidate order. Past
		// MaxStates no state is interned (Truncated is set, the
		// candidate resolves to -1 and adds no edge) but the drain
		// continues: later levels still attach edges between committed
		// states, exactly like the serial FIFO queue does.
		if cap(assigned) < len(flat) {
			assigned = make([]int32, len(flat))
		}
		assigned = assigned[:len(flat)]
		lvlLo := len(g.Nodes)
		seq := 0
		for i, n := range nsucc {
			src := g.Nodes[lo+i]
			src.Out = make([]TimedEdge, 0, n)
			for ; n > 0; n-- {
				c := &flat[seq]
				var nid int32
				switch {
				case c.id >= 0:
					nid = c.id
				case c.dup >= 0:
					nid = assigned[c.dup]
				default:
					if len(g.Nodes) >= opt.MaxStates {
						g.Truncated = true
						nid = -1
					} else {
						nid = int32(len(g.Nodes))
						c.node.ID = int(nid)
						g.Nodes = append(g.Nodes, c.node)
						seen[c.hash%uint64(shards)][c.key] = nid
					}
				}
				assigned[seq] = nid
				if nid >= 0 {
					src.Out = append(src.Out, TimedEdge{Trans: c.label, Delta: c.delta, To: int(nid)})
				}
				seq++
			}
		}
		lo, hi = lvlLo, len(g.Nodes)
	}
	return g, nil
}

// eachWorker calls f(w) for every w < n, each on its own goroutine,
// and waits for all of them.
func eachWorker(n int, f func(w int)) {
	var wg sync.WaitGroup
	for w := 0; w < n; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			f(w)
		}(w)
	}
	wg.Wait()
}

// refreshEnab recomputes the enabled set of n, keeping the timers of
// prev, aged by age and floored at 0, for transitions that stay
// enabled, and starting fresh timers for newly enabled ones. restart
// forces a fresh timer for one transition (the one that just fired);
// noRestart forces none. prev is sorted by transition, so one merge
// walk finds each kept timer, and n.Enab comes out in transition order.
// Entries are appended to n.Enab, which the caller passes in empty.
func refreshEnab(net *petri.Net, n *TimedNode, prev []Remaining, restart petri.TransID, age petri.Time) error {
	j := 0
	for ti := range net.Trans {
		t := petri.TransID(ti)
		tr := &net.Trans[ti]
		for j < len(prev) && prev[j].Trans < t {
			j++
		}
		if tr.EffFreq() == 0 {
			continue
		}
		if tr.Servers > 0 && activeFirings(n.Pending, t) >= tr.Servers {
			continue
		}
		ok, err := net.Enabled(t, n.Marking, nil)
		if err != nil {
			return err
		}
		if !ok {
			continue
		}
		var left petri.Time
		if j < len(prev) && prev[j].Trans == t && t != restart {
			left = max(prev[j].Left-age, 0)
		} else if tr.Enabling != nil {
			left, _ = tr.Enabling.Const()
		}
		n.Enab = append(n.Enab, Remaining{Trans: t, Left: left})
	}
	return nil
}

// noRestart is refreshEnab's restart argument when no timer restarts.
const noRestart petri.TransID = -1

// activeFirings counts the firings of t in progress.
func activeFirings(pending []Remaining, t petri.TransID) int {
	k := 0
	for _, p := range pending {
		if p.Trans == t {
			k++
		}
	}
	return k
}

// clone returns a copy of n's state (marking and timers, not ID or
// edges), with Pending and Enab sharing one exactly sized array.
func (n *TimedNode) clone() *TimedNode {
	np := len(n.Pending)
	rem := make([]Remaining, np+len(n.Enab))
	copy(rem, n.Pending)
	copy(rem[np:], n.Enab)
	return &TimedNode{Marking: n.Marking.Clone(), Pending: rem[:np:np], Enab: rem[np:]}
}

// expandTimed calls emit with each successor of node, in order: one
// start per ripe transition, or else one time advance. The successor is
// built in scratch and is valid only during the call; emit keeps it by
// cloning it.
func expandTimed(net *petri.Net, node, scratch *TimedNode, emit func(s *TimedNode, label petri.TransID, delta petri.Time)) error {
	s := scratch
	started := false
	// Start events: one successor per ripe transition.
	for _, e := range node.Enab {
		if e.Left != 0 {
			continue
		}
		t := e.Trans
		s.Marking = append(s.Marking[:0], node.Marking...)
		s.Pending = append(s.Pending[:0], node.Pending...)
		s.Enab = s.Enab[:0]
		net.Consume(t, s.Marking)
		f, _ := constOf(net.Trans[t].Firing)
		if f == 0 {
			net.Produce(t, s.Marking)
		} else {
			s.Pending = append(s.Pending, Remaining{Trans: t, Left: f})
			sortPending(s.Pending)
		}
		if err := refreshEnab(net, s, node.Enab, t, 0); err != nil {
			return err
		}
		emit(s, t, 0)
		started = true
	}
	if started {
		return nil
	}
	// No ripe transition: advance time to the next completion or
	// ripening.
	var delta petri.Time
	has := false
	for _, p := range node.Pending {
		if !has || p.Left < delta {
			delta, has = p.Left, true
		}
	}
	for _, e := range node.Enab {
		if e.Left > 0 && (!has || e.Left < delta) {
			delta, has = e.Left, true
		}
	}
	if !has {
		return nil // deadlock
	}
	s.Marking = append(s.Marking[:0], node.Marking...)
	s.Pending = s.Pending[:0]
	s.Enab = s.Enab[:0]
	for _, p := range node.Pending {
		if p.Left-delta == 0 {
			net.Produce(p.Trans, s.Marking)
		} else {
			s.Pending = append(s.Pending, Remaining{Trans: p.Trans, Left: p.Left - delta})
		}
	}
	// Aging every entry by delta keeps s.Pending sorted.
	if err := refreshEnab(net, s, node.Enab, noRestart, delta); err != nil {
		return err
	}
	emit(s, TimeAdvance, delta)
	return nil
}

// sortPending orders p by (left, transition). Callers append at most
// one entry to a sorted slice, so an insertion sort is linear.
func sortPending(p []Remaining) {
	for i := 1; i < len(p); i++ {
		for k := i; k > 0 && pendingLess(p[k], p[k-1]); k-- {
			p[k], p[k-1] = p[k-1], p[k]
		}
	}
}

func pendingLess(a, b Remaining) bool {
	if a.Left != b.Left {
		return a.Left < b.Left
	}
	return a.Trans < b.Trans
}

func constOf(d petri.Delay) (petri.Time, bool) {
	if d == nil {
		return 0, true
	}
	return d.Const()
}

// Deadlocks returns nodes with no outgoing edges.
func (g *TimedGraph) Deadlocks() []int {
	var out []int
	for _, n := range g.Nodes {
		if len(n.Out) == 0 {
			out = append(out, n.ID)
		}
	}
	return out
}

// MaxTokens returns the largest token count place reaches in the timed
// graph (the timed bound can be much tighter than the untimed one,
// which is the point of timed analysis).
func (g *TimedGraph) MaxTokens(place string) (int, error) {
	id, ok := g.Net.PlaceID(place)
	if !ok {
		return 0, fmt.Errorf("reach: unknown place %q", place)
	}
	max := 0
	for _, n := range g.Nodes {
		if n.Marking[id] > max {
			max = n.Marking[id]
		}
	}
	return max, nil
}
