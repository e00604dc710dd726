package main

import (
	"context"
	"fmt"
	"slices"

	"repro/internal/modelgen"
	"repro/internal/petri"
	"repro/internal/reach"
)

// stateSpace verifies nets by exhaustive exploration: reach does nearly
// all the work and the simulator none.
type stateSpace struct {
	cfg     config
	tmp     string
	list    []stateJob
	warmJob stateJob
	fj      map[fjKey]*petri.Net  // per fork-join net, built in setup
	proc    map[string]*petri.Net // per design point, built in setup
	warm    *stateOut
}

// fjKey identifies a generated fork-join net.
type fjKey struct {
	shape forkJoinShape
	seed  int64
}

// stateOut is what a state_space job's check reads.
type stateOut struct {
	memStates, spillStates int
	sameGraph              error // nil when the spill graph equals the mem graph
	ctl                    []bool
	unbounded              []string
	timedStates            int
	procStates             int
}

// stateFormulas hold on every fork-join net: the source place carries
// two tokens or none, and the initial marking stays reachable.
var stateFormulas = []string{"AG({src <= 2})", "AG(EF({src == 2}))", "AG(!deadlock)"}

// spillBudget keeps only a few marking blocks in memory, so the spill
// build writes most of the graph to disk.
const spillBudget = 16 << 10

func (w *stateSpace) clients() int { return 1 }
func (w *stateSpace) minJobs() int { return 200 }
func (w *stateSpace) jobs(int) int { return len(w.list) }
func (w *stateSpace) close() error { return nil }

func (w *stateSpace) peakRSSMB() (float64, error) { return vmKB("self", "VmHWM") }

func (w *stateSpace) setup(ctx context.Context, c tctx) error {
	w.list, w.warmJob = genStateSpace(w.cfg.seed)
	w.fj = map[fjKey]*petri.Net{}
	for _, j := range append(w.list, w.warmJob) {
		_ = c.record("modelgen.build", func(tctx) (int64, error) {
			w.fj[fjKey{j.FJ, j.FJSeed}] = modelgen.ForkJoin(j.FJ.Width, j.FJ.Depth, j.FJSeed)
			return 0, nil
		})
	}
	w.proc = map[string]*petri.Net{}
	for _, name := range stateProcs {
		net, err := pointByName(name).build()
		if err != nil {
			return err
		}
		w.proc[name] = net
	}
	out, err := w.exec(ctx, c, w.warmJob)
	if err != nil {
		return err
	}
	w.warm = out
	if err := checkState(w.warmJob, out); err != nil {
		return failedCheck{fmt.Errorf("warm-up job: %w", err)}
	}
	return nil
}

func (w *stateSpace) run(ctx context.Context, c tctx, _, i int) error {
	out, err := w.exec(ctx, c, w.list[i])
	if err != nil {
		return err
	}
	return checkState(w.list[i], out)
}

func (w *stateSpace) exec(ctx context.Context, c tctx, j stateJob) (*stateOut, error) {
	net := w.fj[fjKey{j.FJ, j.FJSeed}]
	out := &stateOut{}
	mem := reach.Options{Shards: w.cfg.procs, MaxStates: 1 << 20, Store: reach.StoreMem}
	spill := mem
	spill.Store, spill.SpillBudget, spill.SpillDir = reach.StoreSpill, spillBudget, w.tmp

	var g, gs *reach.Graph
	defer func() {
		for _, x := range []*reach.Graph{g, gs} {
			if x != nil {
				x.Close()
			}
		}
	}()
	err := c.record("reach.build", func(tctx) (n int64, err error) {
		g, err = reach.Build(ctx, net, mem)
		if err != nil {
			return 0, err
		}
		out.memStates = g.NumNodes()
		return int64(out.memStates), nil
	})
	if err != nil {
		return nil, err
	}
	err = c.record("reach.spill_build", func(tctx) (n int64, err error) {
		gs, err = reach.Build(ctx, net, spill)
		if err != nil {
			return 0, err
		}
		out.spillStates = gs.NumNodes()
		return int64(out.spillStates), nil
	})
	if err != nil {
		return nil, err
	}
	out.sameGraph = sameGraph(g, gs)

	err = c.record("reach.ctl", func(tctx) (int64, error) {
		for _, src := range stateFormulas {
			f, err := reach.ParseFormula(src)
			if err != nil {
				return 0, err
			}
			out.ctl = append(out.ctl, reach.Holds(g, f))
		}
		return int64(len(stateFormulas)), nil
	})
	if err != nil {
		return nil, err
	}
	err = c.record("reach.coverability", func(tctx) (n int64, err error) {
		out.unbounded, err = reach.Coverability(ctx, net, mem)
		return 0, err
	})
	if err != nil {
		return nil, err
	}

	proc := w.proc[j.Proc.Name]
	err = c.record("reach.timed_build", func(tctx) (int64, error) {
		tg, err := reach.BuildTimed(ctx, proc, reach.Options{Shards: w.cfg.procs})
		if err != nil {
			return 0, err
		}
		out.timedStates = len(tg.Nodes)
		return int64(out.timedStates), nil
	})
	if err != nil {
		return nil, err
	}
	err = c.record("reach.build", func(tctx) (int64, error) {
		pg, err := reach.Build(ctx, proc, mem)
		if err != nil {
			return 0, err
		}
		defer pg.Close()
		out.procStates = pg.NumNodes()
		return int64(out.procStates), nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// sameGraph reports how two graphs of one net differ: node count, any
// node's marking, or any node's edges. Markings are compared in one bulk
// scan of each store.
func sameGraph(a, b *reach.Graph) error {
	if a.NumNodes() != b.NumNodes() {
		return fmt.Errorf("%d nodes vs %d", a.NumNodes(), b.NumNodes())
	}
	var flat []int
	a.EachMarking(func(_ int, m petri.Marking) bool {
		flat = append(flat, m...)
		return true
	})
	var diff error
	b.EachMarking(func(id int, m petri.Marking) bool {
		if !slices.Equal(flat[id*len(m):(id+1)*len(m)], m) {
			diff = fmt.Errorf("node %d has different markings", id)
		}
		return diff == nil
	})
	if diff != nil {
		return diff
	}
	for id := range a.Nodes {
		if !slices.Equal(a.Nodes[id].Out, b.Nodes[id].Out) {
			return fmt.Errorf("node %d has different edges", id)
		}
	}
	return nil
}

// forkJoinStates is the untimed state count of a fork-join net: each of
// the Width branches holds its token in one of Depth+1 places, plus the
// marking with every token back in the source.
func forkJoinStates(s forkJoinShape) int {
	n := 1
	for i := 0; i < s.Width; i++ {
		n *= s.Depth + 1
	}
	return n + 1
}

// checkState is the state_space output check.
func checkState(j stateJob, o *stateOut) error {
	if want := forkJoinStates(j.FJ); o.memStates != want {
		return fmt.Errorf("ForkJoin(%d,%d) has %d states, want %d", j.FJ.Width, j.FJ.Depth, o.memStates, want)
	}
	if o.spillStates != o.memStates {
		return fmt.Errorf("spill build has %d states, mem build %d", o.spillStates, o.memStates)
	}
	if o.sameGraph != nil {
		return fmt.Errorf("spill graph differs from mem graph: %w", o.sameGraph)
	}
	for i, ok := range o.ctl {
		if !ok {
			return fmt.Errorf("CTL %s does not hold", stateFormulas[i])
		}
	}
	if len(o.ctl) != len(stateFormulas) {
		return fmt.Errorf("%d CTL verdicts, want %d", len(o.ctl), len(stateFormulas))
	}
	if len(o.unbounded) > 0 {
		return fmt.Errorf("coverability calls bounded places unbounded: %v", o.unbounded)
	}
	if o.timedStates != j.Proc.TimedStates {
		return fmt.Errorf("%s has %d timed states, want %d", j.Proc.Name, o.timedStates, j.Proc.TimedStates)
	}
	if o.procStates != j.Proc.UntimedStates {
		return fmt.Errorf("%s has %d untimed states, want %d", j.Proc.Name, o.procStates, j.Proc.UntimedStates)
	}
	return nil
}

func (w *stateSpace) selfTest() []error {
	j := w.warmJob
	perturb := []struct {
		what string
		edit func(*stateOut)
	}{
		{"fork-join state count off by one", func(o *stateOut) { o.memStates++ }},
		{"spill state count off by one", func(o *stateOut) { o.spillStates-- }},
		{"timed state count off by one", func(o *stateOut) { o.timedStates++ }},
		{"untimed processor state count off by one", func(o *stateOut) { o.procStates-- }},
		{"a CTL verdict flipped", func(o *stateOut) { o.ctl = append([]bool{false}, o.ctl[1:]...) }},
	}
	var errs []error
	for _, p := range perturb {
		bad := *w.warm
		p.edit(&bad)
		errs = append(errs, expectRejected(p.what, checkState(j, &bad)))
	}
	return errs
}

func (w *stateSpace) layers(m metrics, spans []span, rounds []int) bool {
	exact := true
	t := func(name string) layerTotals { return totalsByRound(spans, name) }
	count := func(name string) int64 {
		n, ok := t(name).exactCount(rounds)
		exact = exact && ok
		return n
	}
	m.set("modelgen.build_ms", median(setupMS(spans, "modelgen.build")), "ms")
	m.set("reach.build_ms", median(t("reach.build").msOf(rounds)), "ms")
	m.set("reach.states", float64(count("reach.build")), "count")
	m.set("reach.states_per_s", t("reach.build").rate(rounds), "1/s")
	m.set("reach.spill_build_ms", median(t("reach.spill_build").msOf(rounds)), "ms")
	m.set("reach.spill_states_per_s", t("reach.spill_build").rate(rounds), "1/s")
	m.set("reach.timed_build_ms", median(t("reach.timed_build").msOf(rounds)), "ms")
	m.set("reach.timed_states", float64(count("reach.timed_build")), "count")
	m.set("reach.timed_states_per_s", t("reach.timed_build").rate(rounds), "1/s")
	m.set("reach.ctl_ms", median(t("reach.ctl").msOf(rounds)), "ms")
	m.set("reach.coverability_ms", median(t("reach.coverability").msOf(rounds)), "ms")
	return exact
}

// setupMS returns, per setup, the summed duration of the named spans.
func setupMS(spans []span, name string) []float64 {
	per := map[int]float64{}
	for _, s := range spans {
		if s.Name == name && s.Round < 0 {
			per[s.Round] += s.ms()
		}
	}
	var out []float64
	for _, v := range per {
		out = append(out, v)
	}
	return out
}
