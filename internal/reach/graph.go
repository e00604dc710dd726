// Package reach implements the P-NUT reachability graph analyzer: the
// untimed and timed state-space constructions referenced in Section 4
// ([MR87] for untimed interactive state-space analysis, [RP84] for the
// timed reachability graphs), together with the branching-time
// temporal-logic checker used to verify "high-level specification of
// the expected behavior of a system".
//
// Where Tracertool (package tracer) tests a property on one simulation
// trace, the reachability analyzer proves it over all possible
// behaviours — the paper contrasts exactly these two modes.
//
// The untimed construction is a sharded-frontier parallel BFS with a
// canonical numbering contract: node ids, edge order, markings and
// truncation flags are bit-identical to the serial FIFO build (kept as
// the oracle in the package tests) for every shard count. Markings
// live in a compact delta-encoded store (see store.go) instead of one
// []int plus an interning string per node. The search allocates per
// level, not per state: successors are fired into per-shard marking
// arenas reused across levels, dedup maps a marking hash to the newest
// node carrying it and chains older same-hash nodes through one index
// array, and each level's edges share one array. Coverability keeps
// its Karp-Miller tree the same way, in one flat marking arena with
// parent and hash-chain index arrays.
package reach

import (
	"context"
	"fmt"
	"runtime"
	"slices"
	"sort"
	"strings"

	"repro/internal/petri"
)

// State store names for Options.Store.
const (
	StoreMem   = "mem"
	StoreSpill = "spill"
)

// Options control graph construction.
type Options struct {
	// MaxStates caps the number of nodes explored (default 100 000).
	MaxStates int
	// BoundCap flags a place as potentially unbounded when its token
	// count exceeds this value (default 4096). Use Coverability for a
	// definite answer on nets without inhibitor arcs.
	BoundCap int
	// Shards is the number of exploration goroutines Build and
	// BuildTimed fan each frontier level across (0 or less =
	// GOMAXPROCS). The graph — node numbering, edge order, flags — is
	// bit-identical for every value; shards only change wall-clock
	// time.
	Shards int
	// Store selects the marking store: StoreMem (the in-memory delta
	// store) or StoreSpill (framed blocks spilling to a temp file past
	// SpillBudget bytes). Empty resolves to StoreSpill when SpillBudget
	// or SpillDir is set, else StoreMem. Graphs are bit-identical
	// across stores; the store only changes where the bytes live.
	Store string
	// SpillBudget is the spill store's in-memory byte allowance for
	// sealed marking blocks (0 with the spill store = spill every
	// sealed block to disk).
	SpillBudget int64
	// SpillDir is the directory for spill temp files ("" = the system
	// temp dir).
	SpillDir string
}

func (o *Options) defaults() {
	if o.MaxStates <= 0 {
		o.MaxStates = 100_000
	}
	if o.BoundCap <= 0 {
		o.BoundCap = 4096
	}
}

// StoreName resolves the effective store selection: an explicit Store
// wins; otherwise setting SpillBudget or SpillDir implies the spill
// store, and the default is the in-memory store.
func (o Options) StoreName() string {
	if o.Store != "" {
		return o.Store
	}
	if o.SpillBudget > 0 || o.SpillDir != "" {
		return StoreSpill
	}
	return StoreMem
}

// CheckStore validates the store selection without building anything —
// the flag/spec layers call it so a typo fails at parse time, not
// mid-job.
func (o Options) CheckStore() error {
	switch o.StoreName() {
	case StoreMem, StoreSpill:
		return nil
	}
	return fmt.Errorf("reach: unknown state store %q (want %q or %q)", o.Store, StoreMem, StoreSpill)
}

// newStateStore builds the store Options select.
func newStateStore(opt Options, places int) (StateStore, error) {
	switch opt.StoreName() {
	case StoreMem:
		return NewMemStore(places), nil
	case StoreSpill:
		return NewSpillStore(places, opt.SpillBudget, opt.SpillDir), nil
	}
	return nil, opt.CheckStore()
}

// Edge is one graph transition.
type Edge struct {
	Trans petri.TransID
	To    int
}

// Node is one reachable marking: its id and outgoing edges. The
// marking itself lives in the graph's compact store — see MarkingOf
// and EachMarking.
type Node struct {
	ID  int
	Out []Edge
}

// Graph is a reachability graph. Node 0 is the initial marking. Close
// the graph when done: the spill store holds a temp file.
type Graph struct {
	Net   *petri.Net
	Nodes []Node
	store StateStore
	// Truncated is true if MaxStates was hit; construction stops at
	// that point, so analyses are lower bounds only.
	Truncated bool
	// CapExceeded names a place whose token count exceeded BoundCap
	// (empty if none): a strong hint of unboundedness.
	CapExceeded string
}

// MarkingOf decodes and returns the marking of one node. Each call
// allocates; prefer EachMarking for whole-graph scans.
func (g *Graph) MarkingOf(id int) petri.Marking { return g.store.At(id, nil) }

// EachMarking calls fn for every node in id order with a decode buffer
// that is reused between calls — fn must not retain m. Returning false
// stops the scan. A full scan decodes the store once, sequentially,
// which is how Bound, CheckInvariant and the CTL atom evaluation walk
// million-state graphs without per-node allocation.
func (g *Graph) EachMarking(fn func(id int, m petri.Marking) bool) {
	g.store.Span(0, g.store.Len(), fn)
}

// StoreBytes returns the encoded size of the marking store — the
// space the state space itself occupies (memory plus spill file),
// excluding adjacency.
func (g *Graph) StoreBytes() int { return g.store.Bytes() }

// SpilledBytes returns how many encoded marking bytes currently live
// on disk rather than in memory (0 for the in-memory store).
func (g *Graph) SpilledBytes() int64 {
	if s, ok := g.store.(*SpillStore); ok {
		return s.SpilledBytes()
	}
	return 0
}

// Close releases the marking store's resources (the spill store's temp
// file). The graph must not be used afterwards. Safe on a nil-store
// graph and idempotent.
func (g *Graph) Close() error {
	if g == nil || g.store == nil {
		return nil
	}
	return g.store.Close()
}

// Build constructs the untimed reachability graph: firing times and
// enabling times are ignored and every enabled transition can fire
// atomically. Interpreted nets (predicates or actions) are rejected —
// their state includes program variables, which the graph cannot
// enumerate faithfully.
//
// The search is a level-synchronized parallel BFS: each frontier level
// is expanded by opt.Shards goroutines, successor markings are
// deduplicated in per-shard hash maps, and new nodes are then
// committed sequentially in the exact (node, transition) order the
// serial FIFO build visits them — so the result is bit-identical to
// the serial build for any shard count. Construction stops the moment
// a new state would exceed MaxStates (Truncated is set and the graph
// holds exactly MaxStates nodes).
//
// Nothing is allocated per state: successors are fired into per-shard
// marking arenas reused across levels, a dedup bucket is one map entry
// plus a chain link per node, and the edges of a level share one
// array, so allocations grow with the number of levels (and buffer
// doublings), not with the number of states.
//
// ctx is checked at every level barrier (and the spill store's I/O
// errors surface there too); on cancellation the partial graph is
// discarded, its store closed, and ctx.Err() returned.
func Build(ctx context.Context, net *petri.Net, opt Options) (*Graph, error) {
	opt.defaults()
	if net.Interpreted() {
		return nil, fmt.Errorf("reach: net %q is interpreted (predicates/actions); reachability requires a plain net", net.Name)
	}
	shards := opt.Shards
	if shards <= 0 {
		shards = runtime.GOMAXPROCS(0)
	}

	places := net.NumPlaces()
	store, err := newStateStore(opt, places)
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
	m0 := net.InitialMarking()
	g.Nodes = append(g.Nodes, Node{ID: 0})
	g.store.Add(m0)

	// Per-shard dedup: a marking is owned by shard hash%shards. seen maps
	// a hash to the newest committed node carrying it; older nodes with
	// the same hash are chained through chain[id] (-1 ends a chain), and
	// collisions are resolved by comparing against the store.
	seen := make([]map[uint64]int32, shards)
	pend := make([]map[uint64]int32, shards) // the current level's new markings
	for i := range seen {
		seen[i], pend[i] = make(map[uint64]int32), make(map[uint64]int32)
	}
	chain := []int32{-1}
	h0 := hashMarking(m0)
	seen[h0%uint64(shards)][h0] = 0

	// cand is one successor produced during frontier expansion; its
	// marking is arenas[w][off:off+places]. The dedup phase fills in its
	// resolution: node >= 0 is a committed node id; dup >= 0 says "same
	// new marking as the earlier candidate with that global sequence
	// number"; both -1 means a genuinely new marking.
	type cand struct {
		hash uint64
		off  int
		w    int32
		t    petri.TransID
		node int32
		dup  int32
	}

	// Buffers reused across levels: per-worker successor arenas and
	// candidates (in node order, so their concatenation is the global
	// order), store decode buffers, and the chain of pend's entries by
	// candidate sequence number (pendNext, like chain for seen).
	var (
		arenas   = make([]petri.Marking, shards)
		outs     = make([][]cand, shards)
		scratch  = make([]petri.Marking, shards)
		errs     = make([]error, shards)
		byShard  = make([][]int32, shards)
		nsucc    []int32 // successors per frontier node
		flat     []cand
		pendNext []int32
		assigned []int32
	)
	mark := func(c *cand) petri.Marking { return arenas[c.w][c.off : c.off+places] }

	// The per-level work runs through closures made once; they read the
	// level bounds lo..hi and the worker chunk as the loop moves them.
	// Frontier levels are contiguous id ranges: [lo, hi) was assigned
	// last round, in order, exactly like the serial FIFO queue.
	lo, hi, chunk := 0, 1, 0
	// expand is Phase A for worker w: decode its run of frontier
	// markings and fire every enabled transition into its arena. Only
	// reads the store (no adds are in flight).
	expand := func(w int) {
		arena, out := arenas[w][:0], outs[w][:0]
		if a, b := lo+w*chunk, min(lo+(w+1)*chunk, hi); a < b {
			g.store.Span(a, b, func(id int, m petri.Marking) bool {
				// Reserve room for every transition's successor through
				// grow, so the appends below never step the arena by
				// append's 1.25x.
				arena = grow(arena, len(net.Trans)*places)
				out = grow(out, len(net.Trans))
				n0 := len(out)
				for ti := range net.Trans {
					t := petri.TransID(ti)
					ok, err := net.Enabled(t, m, nil)
					if err != nil {
						errs[w] = err
						return false
					}
					if !ok {
						continue
					}
					off := len(arena)
					arena = append(arena, m...)
					next := arena[off:]
					net.Consume(t, next)
					net.Produce(t, next)
					out = append(out, cand{hash: hashMarking(next), off: off, w: int32(w), t: t})
				}
				nsucc[id-lo] = int32(len(out) - n0)
				return true
			})
		}
		arenas[w], outs[w] = arena, out
	}
	// dedup is Phase B for shard w: resolve its candidates against its
	// committed nodes and against earlier candidates of the level, in
	// global order. Shards touch disjoint maps and disjoint candidates;
	// the store and chain are read-only.
	dedup := func(w int) {
		if len(byShard[w]) == 0 {
			return
		}
		clear(pend[w])
		for _, seq := range byShard[w] {
			c := &flat[seq]
			m := mark(c)
			c.node, c.dup = -1, -1
			for id := chainHead(seen[w], c.hash); id >= 0; id = chain[id] {
				var eq bool
				if eq, scratch[w] = g.store.Equal(int(id), m, scratch[w]); eq {
					c.node = id
					break
				}
			}
			if c.node >= 0 {
				continue
			}
			head := chainHead(pend[w], c.hash)
			for ps := head; ps >= 0; ps = pendNext[ps] {
				if mark(&flat[ps]).Equal(m) {
					c.dup = ps
					break
				}
			}
			if c.dup >= 0 {
				continue
			}
			pendNext[seq] = head
			pend[w][c.hash] = seq
		}
	}

	for lo < hi && !g.Truncated {
		// Level barrier: cancellation and store errors (spill I/O) are
		// checked here, between rounds, where no goroutine is in flight.
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		if err := g.store.Err(); err != nil {
			return nil, err
		}
		// Phase A — expand, in parallel over contiguous chunks.
		width := hi - lo
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

		// Flatten to the global candidate order — (node asc, transition
		// asc), the order the serial build visits successors — and
		// bucket each candidate's sequence number to its owning shard.
		flat = flat[:0]
		for w := range outs {
			flat = append(grow(flat, len(outs[w])), outs[w]...)
		}
		for w := range byShard {
			byShard[w] = byShard[w][:0]
		}
		for seq := range flat {
			s := flat[seq].hash % uint64(shards)
			byShard[s] = append(byShard[s], int32(seq))
		}
		if cap(pendNext) < len(flat) {
			pendNext = make([]int32, len(flat))
			assigned = make([]int32, len(flat))
		}
		pendNext, assigned = pendNext[:len(flat)], assigned[:len(flat)]

		// Phase B — dedup per shard.
		eachWorker(shards, dedup)

		// Phase C — commit, sequentially in global candidate order:
		// bound-cap detection, id assignment, store appends, edges and
		// truncation all happen exactly as in the serial build. Each
		// node's Out is an exactly sized slice of the level's edges.
		edges := make([]Edge, len(flat))
		lvlLo := len(g.Nodes)
		seq := 0
		for i, n := range nsucc {
			start := seq
			for ; n > 0; n-- {
				c := &flat[seq]
				m := mark(c)
				if g.CapExceeded == "" {
					for pi, cnt := range m {
						if cnt > opt.BoundCap {
							g.CapExceeded = net.Places[pi].Name
							break
						}
					}
				}
				var nid int32
				switch {
				case c.node >= 0:
					nid = c.node
				case c.dup >= 0:
					nid = assigned[c.dup]
				default:
					if len(g.Nodes) >= opt.MaxStates {
						g.Truncated = true
					} else {
						nid = int32(len(g.Nodes))
						// Plain append: the graph keeps g.Nodes, so its
						// spare capacity stays small.
						g.Nodes = append(g.Nodes, Node{ID: int(nid)})
						g.store.Add(m)
						s := c.hash % uint64(shards)
						chain = append(grow(chain, 1), chainHead(seen[s], c.hash))
						seen[s][c.hash] = nid
					}
				}
				if g.Truncated {
					break
				}
				assigned[seq] = nid
				edges[seq] = Edge{Trans: c.t, To: int(nid)}
				seq++
			}
			if seq > start {
				g.Nodes[lo+i].Out = edges[start:seq:seq]
			}
			if g.Truncated {
				break
			}
		}
		lo, hi = lvlLo, len(g.Nodes)
	}
	if err := g.store.Err(); err != nil {
		return nil, err
	}
	done = true
	return g, nil
}

// chainHead returns the newest id filed under hash h in a chained
// dedup map, or -1 if there is none; older ids with the same hash
// follow through the map's chain array.
func chainHead(m map[uint64]int32, h uint64) int32 {
	if id, ok := m[h]; ok {
		return id
	}
	return -1
}

// grow returns s with room for n more elements. When it must grow it
// at least doubles the capacity: append steps large slices by about
// 1.25x, which would allocate and copy an arena about five times its
// final size instead of about twice.
func grow[T any](s []T, n int) []T {
	if len(s)+n <= cap(s) {
		return s
	}
	return slices.Grow(s, cap(s)+n)
}

// serialCheckEvery is how often (in processed nodes) Coverability and
// the serial builds of the package tests poll ctx (and the builds the
// store's sticky error).
const serialCheckEvery = 1024

// Deadlocks returns the IDs of nodes with no outgoing edges.
func (g *Graph) Deadlocks() []int {
	var out []int
	for i := range g.Nodes {
		if len(g.Nodes[i].Out) == 0 {
			out = append(out, g.Nodes[i].ID)
		}
	}
	return out
}

// Bound returns the maximum token count place reaches across the graph.
func (g *Graph) Bound(place string) (int, error) {
	id, ok := g.Net.PlaceID(place)
	if !ok {
		return 0, fmt.Errorf("reach: unknown place %q", place)
	}
	max := 0
	g.EachMarking(func(_ int, m petri.Marking) bool {
		if m[id] > max {
			max = m[id]
		}
		return true
	})
	return max, nil
}

// DeadTransitions returns the transitions that fire on no edge of the
// graph (L0-dead in the classical liveness hierarchy).
func (g *Graph) DeadTransitions() []string {
	fired := make([]bool, g.Net.NumTrans())
	for i := range g.Nodes {
		for _, e := range g.Nodes[i].Out {
			fired[e.Trans] = true
		}
	}
	var out []string
	for i, f := range fired {
		if !f {
			out = append(out, g.Net.Trans[i].Name)
		}
	}
	return out
}

// CheckInvariant verifies that the weighted token sum over the named
// places is the same in every reachable marking (a P-invariant, e.g.
// Bus_free + Bus_busy = 1). It returns the invariant value, or an error
// naming the first violating node.
func (g *Graph) CheckInvariant(weights map[string]int) (int, error) {
	ids := make(map[petri.PlaceID]int, len(weights))
	for name, w := range weights {
		id, ok := g.Net.PlaceID(name)
		if !ok {
			return 0, fmt.Errorf("reach: unknown place %q in invariant", name)
		}
		ids[id] = w
	}
	sum := func(m petri.Marking) int {
		s := 0
		for id, w := range ids {
			s += w * m[id]
		}
		return s
	}
	want, violated := 0, -1
	g.EachMarking(func(id int, m petri.Marking) bool {
		got := sum(m)
		if id == 0 {
			want = got
			return true
		}
		if got != want {
			violated = id
			return false
		}
		return true
	})
	if violated >= 0 {
		m := g.MarkingOf(violated)
		return 0, fmt.Errorf("reach: invariant violated at node %d (%s): %d != %d",
			violated, m.Format(g.Net), sum(m), want)
	}
	return want, nil
}

// Summary renders a human-readable analysis overview.
func (g *Graph) Summary() string {
	var b strings.Builder
	fmt.Fprintf(&b, "reachability graph of %q: %d states", g.Net.Name, len(g.Nodes))
	if g.Truncated {
		fmt.Fprintf(&b, " (truncated)")
	}
	fmt.Fprintf(&b, "\n")
	if g.CapExceeded != "" {
		fmt.Fprintf(&b, "  place %q exceeded the bound cap (likely unbounded)\n", g.CapExceeded)
	}
	dl := g.Deadlocks()
	fmt.Fprintf(&b, "  deadlocks: %d\n", len(dl))
	for i, id := range dl {
		if i == 5 {
			fmt.Fprintf(&b, "    ...\n")
			break
		}
		fmt.Fprintf(&b, "    #%d %s\n", id, g.MarkingOf(id).Format(g.Net))
	}
	if dead := g.DeadTransitions(); len(dead) > 0 {
		fmt.Fprintf(&b, "  dead transitions: %s\n", strings.Join(dead, ", "))
	}
	return b.String()
}

// --- coverability (Karp-Miller) ---------------------------------------

// Omega is the unbounded-place pseudo-count in coverability markings.
const Omega = int(^uint(0) >> 1) // max int

// Coverability runs the Karp-Miller construction and returns the set of
// places that are unbounded. Nets with inhibitor arcs are rejected: the
// construction is not sound for them (and reachability itself is
// undecidable). ctx is checked every serialCheckEvery expanded nodes.
//
// The tree is explored depth first. Its markings live in one flat
// arena indexed by node, with parent links as indices, and a node is
// deduplicated by hashMarking plus an exact comparison along its hash
// chain, so the search allocates nothing per node.
func Coverability(ctx context.Context, net *petri.Net, opt Options) (unbounded []string, err error) {
	opt.defaults()
	if net.Interpreted() {
		return nil, fmt.Errorf("reach: interpreted nets are not supported by coverability")
	}
	for i := range net.Trans {
		if len(net.Trans[i].Inhib) > 0 {
			return nil, fmt.Errorf("reach: net %q has inhibitor arcs; Karp-Miller coverability is unsound for them", net.Name)
		}
	}
	enabled := func(t petri.TransID, m petri.Marking) bool {
		for _, a := range net.Trans[t].In {
			if m[a.Place] != Omega && m[a.Place] < a.Weight {
				return false
			}
		}
		return true
	}
	fire := func(t petri.TransID, m petri.Marking) {
		for _, a := range net.Trans[t].In {
			if m[a.Place] != Omega {
				m[a.Place] -= a.Weight
			}
		}
		for _, a := range net.Trans[t].Out {
			if m[a.Place] != Omega {
				m[a.Place] += a.Weight
			}
		}
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

	// Node i's marking is marks[i*places:(i+1)*places] and parent[i] its
	// tree parent (-1 at the root). seen maps a marking hash to the
	// newest node carrying it; older ones are chained through chain[i].
	places := net.NumPlaces()
	isOmega := make([]bool, places)
	marks := net.InitialMarking()
	parent, chain := []int32{-1}, []int32{-1}
	seen := map[uint64]int32{hashMarking(marks): 0}
	at := func(i int32) petri.Marking {
		o := int(i) * places
		return marks[o : o+places]
	}
	work := []int32{0}
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
			if !enabled(t, at(n)) {
				continue
			}
			// Fire into a tentative slot at the arena's end, kept only
			// if the marking turns out to be new.
			off := len(marks)
			marks = append(marks, at(n)...)
			next := marks[off:]
			fire(t, next)
			// Accelerate: if an ancestor is strictly covered, pump the
			// strictly larger places to Omega.
			for a := n; a >= 0; a = parent[a] {
				am := at(a)
				if covers(next, am) && !next.Equal(am) {
					for i := range next {
						if am[i] != Omega && next[i] != Omega && next[i] > am[i] {
							next[i] = Omega
							isOmega[i] = true
						}
					}
				}
			}
			h := hashMarking(next)
			head := chainHead(seen, h)
			dup := false
			for id := head; id >= 0 && !dup; id = chain[id] {
				dup = at(id).Equal(next)
			}
			if dup {
				marks = marks[:off]
				continue
			}
			id := int32(len(parent))
			parent = append(parent, n)
			chain = append(chain, head)
			seen[h] = id
			work = append(work, id)
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
