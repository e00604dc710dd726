package main

import (
	"context"
	"fmt"
	"math"
	"sync"

	"repro/internal/analytic"
	"repro/internal/petri"
	"repro/internal/reach"
)

// exactAnalysis solves processor design points exactly: the timed
// reachability graph read as a semi-Markov process ([RP84]). The solve
// is nearly all of the host time.
type exactAnalysis struct {
	cfg  config
	list []designPoint
	nets map[string]*petri.Net // built in setup
	warm *analysisOut

	mu        sync.Mutex
	maxRelErr float64 // over every measured job
}

// analysisOut is what an exact_analysis job's check reads.
type analysisOut struct {
	timedStates, states int
	util, thr           float64
}

func (w *exactAnalysis) clients() int { return 1 }
func (w *exactAnalysis) minJobs() int { return 200 }
func (w *exactAnalysis) jobs(int) int { return len(w.list) }
func (w *exactAnalysis) close() error { return nil }

func (w *exactAnalysis) peakRSSMB() (float64, error) { return vmKB("self", "VmHWM") }

func (w *exactAnalysis) setup(ctx context.Context, c tctx) error {
	w.list = genExactAnalysis(w.cfg.seed)
	warm := pointByName(analysisWarm)
	w.nets = map[string]*petri.Net{}
	for _, d := range append(w.list, warm) {
		net, err := d.build()
		if err != nil {
			return err
		}
		w.nets[d.Name] = net
	}
	out, err := w.exec(ctx, c, warm)
	if err != nil {
		return err
	}
	w.warm = out
	if err := checkAnalysis(warm, out); err != nil {
		return failedCheck{fmt.Errorf("warm-up job: %w", err)}
	}
	return nil
}

func (w *exactAnalysis) run(ctx context.Context, c tctx, _, i int) error {
	out, err := w.exec(ctx, c, w.list[i])
	if err != nil {
		return err
	}
	w.mu.Lock()
	w.maxRelErr = math.Max(w.maxRelErr, relErr(w.list[i], out))
	w.mu.Unlock()
	return checkAnalysis(w.list[i], out)
}

// exec builds the point's timed graph on its own (so the trace can split
// the solve from the exploration inside Evaluate) and then solves it.
func (w *exactAnalysis) exec(ctx context.Context, c tctx, d designPoint) (*analysisOut, error) {
	net := w.nets[d.Name]
	opt := reach.Options{Shards: w.cfg.procs}
	out := &analysisOut{}
	err := c.record("reach.timed_build", func(tctx) (int64, error) {
		tg, err := reach.BuildTimed(ctx, net, opt)
		if err != nil {
			return 0, err
		}
		out.timedStates = len(tg.Nodes)
		return int64(out.timedStates), nil
	})
	if err != nil {
		return nil, err
	}
	err = c.record("analytic.evaluate", func(tctx) (int64, error) {
		r, err := analytic.Evaluate(ctx, net, opt)
		if err != nil {
			return 0, err
		}
		place, trans := d.metricNames()
		if out.util, err = r.Utilization(place); err != nil {
			return 0, err
		}
		if out.thr, err = r.Throughput(trans); err != nil {
			return 0, err
		}
		out.states = r.States
		return int64(r.States), nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// relErr is the larger relative deviation of the two figures from the
// point's pinned (or, for the mutex, closed-form) values.
func relErr(d designPoint, o *analysisOut) float64 {
	return math.Max(math.Abs(o.util-d.BusBusy)/d.BusBusy, math.Abs(o.thr-d.Issue)/d.Issue)
}

// checkAnalysis is the exact_analysis output check.
func checkAnalysis(d designPoint, o *analysisOut) error {
	if o.timedStates != d.TimedStates || o.states != d.TimedStates {
		return fmt.Errorf("%s: %d timed states and %d solved, want %d", d.Name, o.timedStates, o.states, d.TimedStates)
	}
	tol := relTol
	if d.Model == "mutex" {
		tol = mutexTol
	}
	if e := relErr(d, o); !(e <= tol) {
		place, trans := d.metricNames()
		return fmt.Errorf("%s: utilization(%s) = %.10g, throughput(%s) = %.10g; want %.10g, %.10g within %g",
			d.Name, place, o.util, trans, o.thr, d.BusBusy, d.Issue, tol)
	}
	return nil
}

func (w *exactAnalysis) selfTest() []error {
	d := pointByName(analysisWarm)
	tol := relTol
	if d.Model == "mutex" {
		tol = mutexTol
	}
	perturb := []struct {
		what string
		edit func(*analysisOut)
	}{
		{"utilization just outside tolerance", func(o *analysisOut) { o.util = d.BusBusy * (1 + 2*tol) }},
		{"throughput just outside tolerance", func(o *analysisOut) { o.thr = d.Issue * (1 - 2*tol) }},
		{"state count off by one", func(o *analysisOut) { o.states++ }},
	}
	var errs []error
	for _, p := range perturb {
		bad := *w.warm
		p.edit(&bad)
		errs = append(errs, expectRejected(p.what, checkAnalysis(d, &bad)))
	}
	return errs
}

func (w *exactAnalysis) layers(m metrics, spans []span, rounds []int) bool {
	exact := true
	t := func(name string) layerTotals { return totalsByRound(spans, name) }
	count := func(name string) int64 {
		n, ok := t(name).exactCount(rounds)
		exact = exact && ok
		return n
	}
	evalMS := t("analytic.evaluate").msOf(rounds)
	buildMS := t("reach.timed_build").msOf(rounds)
	solveMS := make([]float64, len(rounds))
	for i := range rounds {
		solveMS[i] = evalMS[i] - buildMS[i]
	}
	m.set("analytic.evaluate_ms", median(evalMS), "ms")
	m.set("analytic.states", float64(count("analytic.evaluate")), "count")
	m.set("analytic.solve_ms", median(solveMS), "ms")
	m.set("reach.timed_build_ms", median(buildMS), "ms")
	m.set("reach.timed_states", float64(count("reach.timed_build")), "count")
	m.set("reach.timed_states_per_s", t("reach.timed_build").rate(rounds), "1/s")
	w.mu.Lock()
	m.set("analytic.max_relerr", w.maxRelErr, "ratio")
	w.mu.Unlock()
	return exact
}
