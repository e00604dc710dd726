// Package analytic implements the analytical (as opposed to
// simulation) performance evaluation the paper's conclusion refers to,
// in the manner of [RP84] (Razouk & Phelps, "Performance analysis
// using timed Petri nets"): the timed reachability graph of a
// deterministic-delay net is interpreted as a semi-Markov process —
// probabilistic branching at conflict states (probabilities
// proportional to relative firing frequencies, exactly as the
// simulator resolves races), deterministic sojourn times on
// time-advance edges — and its stationary distribution yields *exact*
// place utilizations and transition throughputs, no simulation run and
// no confidence intervals needed.
//
// The embedded chain is solved by censoring (stochastic
// complementation, Meyer, SIAM Review 31(2), 1989). Most timed states
// have exactly one successor — time advances and starts of a single
// ripe transition — so the chain is solved only on its branching
// states B: state 0, every state with more than one successor, and one
// state on each cycle made of single-successor states alone. Each run
// of single-successor states collapses into one edge of the reduced
// chain R over B. The lazy power iteration π ← ½(πR+π) (Stewart,
// "Introduction to the Numerical Solution of Markov Chains", 1994) is
// aperiodic, has R's stationary vector, and starts from state 0, so a
// chain with transient states or several terminal classes yields the
// limit seen from the initial state. The censored states' visit rates
// then follow as flows along their runs, in topological order. The
// iteration stops when ‖πR−π‖₁ < 1e-14; the answer is accepted only
// if the full chain's residual ‖πP−π‖₁ is at most 1e-12, and an
// exhausted iteration budget is an error, never a silent answer. The
// residual is not an error bound: π's distance from the true
// stationary vector is about the residual divided by the chain's
// spectral gap, so a slowly mixing chain can pass the check while π
// is off by more than 1e-12.
//
// Requirements are those of reach.BuildTimed (constant delays, no
// predicates/actions) plus a live steady state: a reachable deadlock
// means no stationary behaviour and is reported as an error.
package analytic

import (
	"context"
	"fmt"
	"math"

	"repro/internal/petri"
	"repro/internal/reach"
)

const (
	// reducedTol is the stopping residual ‖πR−π‖₁ on the censored chain.
	reducedTol = 1e-14
	// fullTol bounds the accepted residual ‖πP−π‖₁ on the full chain.
	fullTol = 1e-12
	// maxIter is the iteration budget of the lazy power iteration.
	maxIter = 1_000_000
)

// Result holds the analytic steady-state solution.
type Result struct {
	// States is the number of timed states.
	States int
	// MeanSojourn is the expected time per embedded-chain step (the
	// normalization constant Σ π·h).
	MeanSojourn float64
	// Iterations is the number of lazy power iterations the censored
	// chain took to converge.
	Iterations int
	// Residual is the full-chain residual ‖πP−π‖₁ of the returned
	// embedded-chain distribution π.
	Residual float64

	net       *petri.Net
	graph     *reach.TimedGraph
	chain     *chain
	pi        []float64 // embedded-chain stationary distribution
	timeShare []float64 // time-stationary distribution (π·h normalized)
}

// Options re-exports the state-space controls.
type Options = reach.Options

// chain is the embedded Markov chain of a timed graph in CSR form:
// state i's edges are off[i]..off[i+1] of to and p, in the order of
// the graph node's Out edges.
type chain struct {
	off     []int32
	to      []int32
	p       []float64
	sojourn []float64
}

// Evaluate builds the timed reachability graph of net and solves the
// embedded Markov chain. ctx cancels the graph construction (the
// parallel reach.BuildTimed checks it at every level barrier) and the
// solve (checked every 1024 iterations).
func Evaluate(ctx context.Context, net *petri.Net, opt Options) (*Result, error) {
	g, err := reach.BuildTimed(ctx, net, opt)
	if err != nil {
		return nil, err
	}
	if g.Truncated {
		cap := opt.MaxStates
		if cap <= 0 {
			cap = 100_000
		}
		return nil, fmt.Errorf("analytic: timed state space exceeds %d states (is the net bounded?)", cap)
	}
	if dl := g.Deadlocks(); len(dl) > 0 {
		return nil, fmt.Errorf("analytic: net deadlocks (e.g. state %d: %s); no steady state",
			dl[0], g.Nodes[dl[0]].Marking.Format(net))
	}
	c, err := embed(net, g)
	if err != nil {
		return nil, err
	}
	pi, iters, res, err := c.solve(ctx, maxIter)
	if err != nil {
		return nil, err
	}
	// Time-stationary distribution.
	n := len(pi)
	r := &Result{States: n, Iterations: iters, Residual: res, net: net, graph: g, chain: c, pi: pi}
	var norm float64
	r.timeShare = make([]float64, n)
	for i := range pi {
		r.timeShare[i] = pi[i] * c.sojourn[i]
		norm += r.timeShare[i]
	}
	if norm <= 0 {
		return nil, fmt.Errorf("analytic: zero mean sojourn (net is untimed?)")
	}
	for i := range r.timeShare {
		r.timeShare[i] /= norm
	}
	r.MeanSojourn = norm
	return r, nil
}

// embed derives the embedded chain: a time advance moves on with
// probability 1 after its delay; a conflict state starts each ripe
// transition with probability proportional to its frequency, as the
// simulator does, in zero time.
func embed(net *petri.Net, g *reach.TimedGraph) (*chain, error) {
	n := len(g.Nodes)
	m := 0
	for _, node := range g.Nodes {
		m += len(node.Out)
	}
	c := &chain{
		off:     make([]int32, n+1),
		to:      make([]int32, 0, m),
		p:       make([]float64, 0, m),
		sojourn: make([]float64, n),
	}
	for i, node := range g.Nodes {
		if len(node.Out) == 1 && node.Out[0].Trans == reach.TimeAdvance {
			c.sojourn[i] = float64(node.Out[0].Delta)
			c.to = append(c.to, int32(node.Out[0].To))
			c.p = append(c.p, 1)
			c.off[i+1] = int32(len(c.to))
			continue
		}
		total := 0.0
		for _, e := range node.Out {
			total += net.Trans[e.Trans].EffFreq()
		}
		if total <= 0 {
			return nil, fmt.Errorf("analytic: state %d has no weighted successors", i)
		}
		for _, e := range node.Out {
			c.to = append(c.to, int32(e.To))
			c.p = append(c.p, net.Trans[e.Trans].EffFreq()/total)
		}
		c.off[i+1] = int32(len(c.to))
	}
	return c, nil
}

// censored is the chain reduced to its branching states.
type censored struct {
	// states lists the branching states in ascending order (state 0
	// first); idx maps a state to its position there, or -1.
	states []int32
	idx    []int32
	// R by columns over positions in states: column j's entries R(from,
	// j) = p are off[j]..off[j+1] of from and p, so an iteration
	// gathers each (πR)_j in one pass.
	off  []int32
	from []int32
	p    []float64
	// order lists every censored state after all its censored
	// predecessors.
	order []int32
}

// censor picks the branching states of c and collapses each run of
// single-successor states between them into one edge. Every censored
// state has one successor and every cycle holds a branching state, so
// each run ends at a branching state (its exit) and the censored
// states form a forest the flows can be pushed through.
func (c *chain) censor() *censored {
	n := len(c.sojourn)
	succ := func(i int32) int32 { return c.to[c.off[i]] }
	// Until positions are assigned below, idx marks a branching state
	// with 0 and a censored one with -1.
	idx := make([]int32, n)
	for i := range idx {
		idx[i] = -1
		if i == 0 || c.off[i+1]-c.off[i] > 1 {
			idx[i] = 0
		}
	}
	// exit[v] is the branching state v's run ends at. Walk each
	// undecided run forward; meeting the walk's own path again closes a
	// pure cycle, whose meeting state becomes branching.
	const onPath = -2
	exit := make([]int32, n)
	for i := range exit {
		exit[i] = -1
	}
	var path []int32
	for i := int32(0); int(i) < n; i++ {
		if idx[i] == 0 || exit[i] >= 0 {
			continue
		}
		path = path[:0]
		v := i
		var x int32
		for {
			if idx[v] == 0 {
				x = v
				break
			}
			if exit[v] >= 0 {
				x = exit[v]
				break
			}
			if exit[v] == onPath {
				idx[v] = 0
				x = v
				break
			}
			exit[v] = onPath
			path = append(path, v)
			v = succ(v)
		}
		for _, u := range path {
			if u != x {
				exit[u] = x
			}
		}
	}
	cs := &censored{idx: idx}
	for i := int32(0); int(i) < n; i++ {
		if idx[i] == 0 {
			idx[i] = int32(len(cs.states))
			cs.states = append(cs.states, i)
		}
	}
	// target returns the position of the branching state chain edge e
	// leads to, directly or along a run.
	target := func(e int32) int32 {
		t := c.to[e]
		if idx[t] < 0 {
			t = exit[t]
		}
		return idx[t]
	}
	m := len(cs.states)
	cs.off = make([]int32, m+1)
	for _, b := range cs.states {
		for e := c.off[b]; e < c.off[b+1]; e++ {
			cs.off[target(e)+1]++
		}
	}
	for j := 0; j < m; j++ {
		cs.off[j+1] += cs.off[j]
	}
	cs.from = make([]int32, cs.off[m])
	cs.p = make([]float64, cs.off[m])
	fill := append([]int32(nil), cs.off[:m]...)
	for k, b := range cs.states {
		for e := c.off[b]; e < c.off[b+1]; e++ {
			j := target(e)
			cs.from[fill[j]], cs.p[fill[j]] = int32(k), c.p[e]
			fill[j]++
		}
	}
	// Kahn's order over the censored-to-censored edges.
	indeg := make([]int32, n)
	for i := int32(0); int(i) < n; i++ {
		if idx[i] < 0 {
			if s := succ(i); idx[s] < 0 {
				indeg[s]++
			}
		}
	}
	for i := int32(0); int(i) < n; i++ {
		if idx[i] < 0 && indeg[i] == 0 {
			cs.order = append(cs.order, i)
		}
	}
	for k := 0; k < len(cs.order); k++ {
		if s := succ(cs.order[k]); idx[s] < 0 {
			if indeg[s]--; indeg[s] == 0 {
				cs.order = append(cs.order, s)
			}
		}
	}
	return cs
}

// solve returns the embedded chain's stationary distribution seen from
// state 0, the iterations the censored chain took, and the full-chain
// residual ‖πP−π‖₁. It fails when the censored iteration does not
// reach reducedTol within budget iterations, when the full residual
// exceeds fullTol, or when ctx is done.
func (c *chain) solve(ctx context.Context, budget int) (pi []float64, iters int, residual float64, err error) {
	cs := c.censor()
	m := len(cs.states)
	// Each pass computes y = xR and the residual ‖y−x‖₁, and stores
	// the lazy step ½(x+y) in z for the next pass.
	x := make([]float64, m)
	y := make([]float64, m)
	z := make([]float64, m)
	x[0] = 1
	converged := false
	for iters < budget {
		if iters%1024 == 0 {
			if err := ctx.Err(); err != nil {
				return nil, iters, 0, err
			}
		}
		iters++
		d := 0.0
		for j := range y {
			s := 0.0
			for e := cs.off[j]; e < cs.off[j+1]; e++ {
				s += x[cs.from[e]] * cs.p[e]
			}
			y[j] = s
			d += math.Abs(s - x[j])
			z[j] = 0.5 * (x[j] + s)
		}
		if d < reducedTol {
			// Keep y = xR: yR−y = (xR−x)R, and a stochastic R does not
			// grow a vector's 1-norm, so y is at least as converged.
			x, converged = y, true
			break
		}
		x, z = z, x
	}
	if !converged {
		return nil, iters, 0, fmt.Errorf("analytic: steady-state iteration did not converge in %d iterations (%d branching states)", budget, m)
	}
	// Expand: branching states keep their censored rates; a censored
	// state's rate is the flow into it, pushed along the runs.
	n := len(c.sojourn)
	pi = make([]float64, n)
	for k, b := range cs.states {
		pi[b] = x[k]
	}
	for _, b := range cs.states {
		for e := c.off[b]; e < c.off[b+1]; e++ {
			if t := c.to[e]; cs.idx[t] < 0 {
				pi[t] += pi[b] * c.p[e]
			}
		}
	}
	for _, v := range cs.order {
		if s := c.to[c.off[v]]; cs.idx[s] < 0 {
			pi[s] += pi[v]
		}
	}
	sum := 0.0
	for _, v := range pi {
		sum += v
	}
	for i := range pi {
		pi[i] /= sum
	}
	residual = c.residual(pi)
	if !(residual <= fullTol) {
		return nil, iters, residual, fmt.Errorf("analytic: steady-state residual %.3g exceeds %g after %d iterations", residual, fullTol, iters)
	}
	return pi, iters, residual, nil
}

// residual returns ‖πP−π‖₁.
func (c *chain) residual(pi []float64) float64 {
	y := make([]float64, len(pi))
	for i, v := range pi {
		for e := c.off[i]; e < c.off[i+1]; e++ {
			y[c.to[e]] += v * c.p[e]
		}
	}
	d := 0.0
	for i := range y {
		d += math.Abs(y[i] - pi[i])
	}
	return d
}

// Utilization returns the time-stationary expected token count of a
// place — the analytic counterpart of the stat tool's "avg tokens".
func (r *Result) Utilization(place string) (float64, error) {
	id, ok := r.net.PlaceID(place)
	if !ok {
		return 0, fmt.Errorf("analytic: unknown place %q", place)
	}
	u := 0.0
	for i, share := range r.timeShare {
		u += share * float64(r.graph.Nodes[i].Marking[id])
	}
	return u, nil
}

// Throughput returns the steady-state firing rate of a transition per
// unit time — the analytic counterpart of the stat tool's throughput.
func (r *Result) Throughput(transition string) (float64, error) {
	id, ok := r.net.TransIDByName(transition)
	if !ok {
		return 0, fmt.Errorf("analytic: unknown transition %q", transition)
	}
	// Expected number of firings of id per embedded step, divided by
	// the expected time per step. Edge k of node i is chain edge
	// off[i]+k.
	starts := 0.0
	for i, node := range r.graph.Nodes {
		if r.pi[i] == 0 {
			continue
		}
		base := r.chain.off[i]
		for k, e := range node.Out {
			if e.Trans == id {
				starts += r.pi[i] * r.chain.p[base+int32(k)]
			}
		}
	}
	return starts / r.MeanSojourn, nil
}

// ProbMarked returns the time-stationary probability that a place holds
// at least min tokens (e.g. the fraction of time the bus is busy).
func (r *Result) ProbMarked(place string, min int) (float64, error) {
	id, ok := r.net.PlaceID(place)
	if !ok {
		return 0, fmt.Errorf("analytic: unknown place %q", place)
	}
	p := 0.0
	for i, share := range r.timeShare {
		if r.graph.Nodes[i].Marking[id] >= min {
			p += share
		}
	}
	return p, nil
}
