package analytic

import (
	"context"
	"fmt"
	"math"
	"os"
	"testing"

	"repro/internal/petri"
	"repro/internal/pipeline"
	"repro/internal/ptl"
	"repro/internal/reach"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/trace"
)

// station: arrivals every 4 ticks, deterministic service 2 ticks.
// Utilization of the server is exactly 0.5, throughput exactly 0.25.
func stationNet(t *testing.T) *petri.Net {
	t.Helper()
	b := petri.NewBuilder("station")
	b.Place("idle", 1)
	b.Place("busy", 0)
	b.Place("queue", 0)
	b.Place("src", 1)
	b.Trans("arrive").In("src").Out("src").Out("queue").EnablingConst(4)
	b.Trans("begin").In("queue").In("idle").Out("busy")
	b.Trans("finish").In("busy").Out("idle").EnablingConst(2)
	return b.MustBuild()
}

func TestStationExact(t *testing.T) {
	r, err := Evaluate(context.Background(), stationNet(t), Options{})
	if err != nil {
		t.Fatal(err)
	}
	u, err := r.Utilization("busy")
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(u-0.5) > 1e-12 {
		t.Errorf("analytic utilization = %.12f, want exactly 0.5", u)
	}
	th, err := r.Throughput("finish")
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(th-0.25) > 1e-12 {
		t.Errorf("analytic throughput = %.12f, want exactly 0.25", th)
	}
	p, err := r.ProbMarked("busy", 1)
	if err != nil || math.Abs(p-0.5) > 1e-12 {
		t.Errorf("ProbMarked = %.12f, %v", p, err)
	}
}

// probabilistic service: 1 tick with weight 3, 3 ticks with weight 1.
// The worst-case service (3) stays below the interarrival time (4), so
// the queue — and with it the timed state space — stays bounded. Every
// arrival is served: total throughput 0.25, split 3:1 across classes.
func TestProbabilisticBranching(t *testing.T) {
	b := petri.NewBuilder("probstation")
	b.Place("idle", 1)
	b.Place("queue", 0)
	b.Place("busy_fast", 0)
	b.Place("busy_slow", 0)
	b.Place("src", 1)
	b.Trans("arrive").In("src").Out("src").Out("queue").EnablingConst(4)
	b.Trans("begin_fast").In("queue").In("idle").Out("busy_fast").Freq(3)
	b.Trans("begin_slow").In("queue").In("idle").Out("busy_slow").Freq(1)
	b.Trans("finish_fast").In("busy_fast").Out("idle").EnablingConst(1)
	b.Trans("finish_slow").In("busy_slow").Out("idle").EnablingConst(3)
	net := b.MustBuild()

	r, err := Evaluate(context.Background(), net, Options{})
	if err != nil {
		t.Fatal(err)
	}
	// Class split: 3:1 of the 0.25 arrival rate.
	fast, _ := r.Throughput("finish_fast")
	slow, _ := r.Throughput("finish_slow")
	if math.Abs(fast-0.1875) > 1e-12 || math.Abs(slow-0.0625) > 1e-12 {
		t.Errorf("class throughputs = %.15f, %.15f, want 0.1875, 0.0625", fast, slow)
	}
	// Cross-validate against a long simulation.
	s := stats.New(trace.HeaderOf(net))
	if _, err := sim.Run(context.Background(), net, s, sim.Options{Horizon: 400_000, Seed: 6}); err != nil {
		t.Fatal(err)
	}
	simFast, _ := s.Throughput("finish_fast")
	if math.Abs(simFast-fast) > 0.005 {
		t.Errorf("simulation %.5f vs analytic %.5f diverge", simFast, fast)
	}
	aBusy, _ := r.ProbMarked("busy_fast", 1)
	sBusy, _ := s.Utilization("busy_fast")
	if math.Abs(aBusy-sBusy) > 0.01 {
		t.Errorf("busy_fast: analytic %.5f vs simulated %.5f", aBusy, sBusy)
	}
}

func TestDeadlockRejected(t *testing.T) {
	b := petri.NewBuilder("dead")
	b.Place("a", 1)
	b.Place("b", 0)
	b.Trans("t").In("a").Out("b").EnablingConst(1)
	if _, err := Evaluate(context.Background(), b.MustBuild(), Options{}); err == nil {
		t.Error("deadlocking net accepted")
	}
}

func TestUntimedRejected(t *testing.T) {
	// A purely instantaneous cycle has zero mean sojourn.
	b := petri.NewBuilder("zeno")
	b.Place("a", 1)
	b.Place("b", 0)
	b.Trans("ab").In("a").Out("b")
	b.Trans("ba").In("b").Out("a")
	if _, err := Evaluate(context.Background(), b.MustBuild(), Options{}); err == nil {
		t.Error("untimed net accepted (zero sojourn)")
	}
}

func TestRandomDelaysRejected(t *testing.T) {
	b := petri.NewBuilder("rand")
	b.Place("a", 1)
	b.Trans("t").In("a").Out("a").Enabling(petri.Uniform{Lo: 1, Hi: 2})
	if _, err := Evaluate(context.Background(), b.MustBuild(), Options{}); err == nil {
		t.Error("random-delay net accepted")
	}
}

func TestUnknownNames(t *testing.T) {
	r, err := Evaluate(context.Background(), stationNet(t), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.Utilization("ghost"); err == nil {
		t.Error("unknown place accepted")
	}
	if _, err := r.Throughput("ghost"); err == nil {
		t.Error("unknown transition accepted")
	}
	if _, err := r.ProbMarked("ghost", 1); err == nil {
		t.Error("unknown place accepted by ProbMarked")
	}
}

// TestPipelineAnalyticMatchesSimulation is the RP84-style validation on
// the paper's own model: the analytic bus utilization and instruction
// rate of the full pipeline net must agree with long-run simulation.
func TestPipelineAnalyticMatchesSimulation(t *testing.T) {
	net, err := pipeline.Processor(pipeline.DefaultParams())
	if err != nil {
		t.Fatal(err)
	}
	r, err := Evaluate(context.Background(), net, Options{MaxStates: 500_000})
	if err != nil {
		t.Fatal(err)
	}
	aBus, err := r.Utilization("Bus_busy")
	if err != nil {
		t.Fatal(err)
	}
	if got := fmt.Sprintf("%.6f", aBus); got != "0.647600" || !(r.Residual <= fullTol) {
		t.Errorf("Bus_busy = %s with residual %g, want 0.647600 with residual ≤ %g", got, r.Residual, fullTol)
	}
	aIssue, err := r.Throughput("Issue")
	if err != nil {
		t.Fatal(err)
	}
	s := stats.New(trace.HeaderOf(net))
	if _, err := sim.Run(context.Background(), net, s, sim.Options{Horizon: 400_000, Seed: 2}); err != nil {
		t.Fatal(err)
	}
	sBus, _ := s.Utilization("Bus_busy")
	sIssue, _ := s.Throughput("Issue")
	t.Logf("bus: analytic %.4f vs simulated %.4f; issue: analytic %.4f vs simulated %.4f (states=%d)",
		aBus, sBus, aIssue, sIssue, r.States)
	if math.Abs(aBus-sBus) > 0.02 {
		t.Errorf("bus utilization: analytic %.4f vs simulated %.4f", aBus, sBus)
	}
	if math.Abs(aIssue-sIssue) > 0.01 {
		t.Errorf("issue rate: analytic %.4f vs simulated %.4f", aIssue, sIssue)
	}
}

// TestMutexClosedForm: in the mutex net's steady state each client
// cycles every 9 ticks, holding the lock 4 of them.
func TestMutexClosedForm(t *testing.T) {
	src, err := os.ReadFile("../../testdata/mutex.pn")
	if err != nil {
		t.Fatal(err)
	}
	net, err := ptl.Parse(string(src))
	if err != nil {
		t.Fatal(err)
	}
	r, err := Evaluate(context.Background(), net, Options{})
	if err != nil {
		t.Fatal(err)
	}
	u, _ := r.Utilization("crit_a")
	th, _ := r.Throughput("enter_a")
	if math.Abs(u-4.0/9) > 1e-12 || math.Abs(th-1.0/9) > 1e-12 {
		t.Errorf("utilization(crit_a) = %.17g, throughput(enter_a) = %.17g, want 4/9, 1/9", u, th)
	}
	if !(r.Residual <= fullTol) || r.Iterations < 1 {
		t.Errorf("residual %g after %d iterations", r.Residual, r.Iterations)
	}
}

// TestDeterministicRing: one token circling L places with one tick per
// hop. The chain is a single pure cycle, so it censors to one state and
// converges at once; every throughput and utilization is exactly 1/L.
func TestDeterministicRing(t *testing.T) {
	const L = 1000
	b := petri.NewBuilder("ring")
	for i := 0; i < L; i++ {
		init := 0
		if i == 0 {
			init = 1
		}
		b.Place(fmt.Sprintf("p%d", i), init)
	}
	for i := 0; i < L; i++ {
		b.Trans(fmt.Sprintf("t%d", i)).In(fmt.Sprintf("p%d", i)).Out(fmt.Sprintf("p%d", (i+1)%L)).EnablingConst(1)
	}
	r, err := Evaluate(context.Background(), b.MustBuild(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if r.Iterations != 1 {
		t.Errorf("ring took %d iterations, want 1", r.Iterations)
	}
	for _, i := range []int{0, 1, L / 2, L - 1} {
		th, _ := r.Throughput(fmt.Sprintf("t%d", i))
		u, _ := r.Utilization(fmt.Sprintf("p%d", i))
		if math.Abs(th-1.0/L) > 1e-12 || math.Abs(u-1.0/L) > 1e-12 {
			t.Errorf("t%d throughput %.17g, p%d utilization %.17g, want 1/%d", i, th, i, u, L)
		}
	}
}

// TestTwoModeMixture: a 3:1 conflict at the start commits the token to
// one of two disjoint cycles for good. The answer is the limit seen
// from the initial state: the cycles' figures mixed 3:1. Both cycles
// take 4 embedded steps per 4 ticks, so the embedded and the time
// mixtures agree.
func TestTwoModeMixture(t *testing.T) {
	b := petri.NewBuilder("twomode")
	b.Place("s", 1)
	for _, n := range []string{"a1", "a2", "b1", "b2"} {
		b.Place(n, 0)
	}
	b.Trans("goA").In("s").Out("a1").Freq(3)
	b.Trans("goB").In("s").Out("b1").Freq(1)
	b.Trans("ta1").In("a1").Out("a2").EnablingConst(1)
	b.Trans("ta2").In("a2").Out("a1").EnablingConst(3)
	b.Trans("tb1").In("b1").Out("b2").EnablingConst(2)
	b.Trans("tb2").In("b2").Out("b1").EnablingConst(2)
	r, err := Evaluate(context.Background(), b.MustBuild(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		name string
		get  func(string) (float64, error)
		want float64
	}{
		{"a1", r.Utilization, 0.75 * 0.25},
		{"b1", r.Utilization, 0.25 * 0.5},
		{"ta1", r.Throughput, 0.75 * 0.25},
		{"tb1", r.Throughput, 0.25 * 0.25},
	} {
		got, err := c.get(c.name)
		if err != nil || math.Abs(got-c.want) > 1e-12 {
			t.Errorf("%s = %.17g (%v), want %g", c.name, got, err, c.want)
		}
	}
}

// TestSolverMatchesGTH checks Evaluate's embedded-chain distribution
// against a dense direct solve of the same chain on small pipeline
// subnets and a small processor.
func TestSolverMatchesGTH(t *testing.T) {
	zero := pipeline.DefaultParams()
	zero.TypeFreqs = [3]float64{1, 0, 0}
	zero.ExecCycles, zero.ExecFreqs = []petri.Time{1, 2}, []float64{1, 1}
	mc3 := pipeline.DefaultParams()
	mc3.MemoryCycles = 3
	bw2 := pipeline.DefaultParams()
	bw2.MemoryCycles, bw2.BufferWords = 1, 2
	nets := map[string]func() (*petri.Net, error){
		"processor_small": func() (*petri.Net, error) { return pipeline.Processor(zero) },
		"processor_bw2":   func() (*petri.Net, error) { return pipeline.Processor(bw2) },
		"decoder":         func() (*petri.Net, error) { return pipeline.Decoder(mc3) },
		"execution":       func() (*petri.Net, error) { return pipeline.Execution(mc3) },
	}
	for name, build := range nets {
		net, err := build()
		if err != nil {
			t.Fatal(err)
		}
		r, err := Evaluate(context.Background(), net, Options{})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		want := gthOracle(t, net, r.graph)
		d := 0.0
		for i := range want {
			d += math.Abs(r.pi[i] - want[i])
		}
		t.Logf("%s: %d states, %d iterations, residual %.3g, |π-π_GTH|₁ = %.3g", name, r.States, r.Iterations, r.Residual, d)
		if d > 1e-12 {
			t.Errorf("%s: |π-π_GTH|₁ = %.3g, want ≤ 1e-12", name, d)
		}
	}
}

// gthOracle solves the embedded chain of g densely: it finds the
// chain's single closed class and runs the Grassmann–Taksar–Heyman
// elimination (subtraction-free Gaussian elimination) on it. Transient
// states get probability 0.
func gthOracle(t *testing.T, net *petri.Net, g *reach.TimedGraph) []float64 {
	t.Helper()
	n := len(g.Nodes)
	P := make([][]float64, n)
	for i, node := range g.Nodes {
		P[i] = make([]float64, n)
		total := 0.0
		for _, e := range node.Out {
			if e.Trans != reach.TimeAdvance {
				total += net.Trans[e.Trans].EffFreq()
			}
		}
		for _, e := range node.Out {
			if e.Trans == reach.TimeAdvance {
				P[i][e.To] += 1
			} else {
				P[i][e.To] += net.Trans[e.Trans].EffFreq() / total
			}
		}
	}
	// reach[i][j]: j is reachable from i.
	reachable := make([][]bool, n)
	for i := range reachable {
		reachable[i] = make([]bool, n)
		reachable[i][i] = true
		for stack := []int{i}; len(stack) > 0; {
			v := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			for _, e := range g.Nodes[v].Out {
				if !reachable[i][e.To] {
					reachable[i][e.To] = true
					stack = append(stack, e.To)
				}
			}
		}
	}
	var class []int
	for i := 0; i < n; i++ {
		recurrent := true
		for j := 0; j < n && recurrent; j++ {
			recurrent = !reachable[i][j] || reachable[j][i]
		}
		if recurrent {
			class = append(class, i)
		}
	}
	for _, i := range class {
		if !reachable[i][class[0]] {
			t.Fatalf("oracle: chain has several closed classes")
		}
	}
	m := len(class)
	A := make([][]float64, m)
	for a, i := range class {
		A[a] = make([]float64, m)
		for b, j := range class {
			A[a][b] = P[i][j]
		}
	}
	s := make([]float64, m)
	for l := m - 1; l > 0; l-- {
		for j := 0; j < l; j++ {
			s[l] += A[l][j]
		}
		for i := 0; i < l; i++ {
			if A[i][l] == 0 {
				continue
			}
			f := A[i][l] / s[l]
			for j := 0; j < l; j++ {
				A[i][j] += f * A[l][j]
			}
		}
	}
	x := make([]float64, m)
	x[0] = 1
	sum := 1.0
	for l := 1; l < m; l++ {
		for i := 0; i < l; i++ {
			x[l] += x[i] * A[i][l]
		}
		x[l] /= s[l]
		sum += x[l]
	}
	pi := make([]float64, n)
	for a, i := range class {
		pi[i] = x[a] / sum
	}
	return pi
}

// TestNonConvergenceIsAnError: an exhausted iteration budget must be
// reported, never answered; so must a cancelled solve.
func TestNonConvergenceIsAnError(t *testing.T) {
	net := stationNet(t)
	g, err := reach.BuildTimed(context.Background(), net, Options{})
	if err != nil {
		t.Fatal(err)
	}
	c, err := embed(net, g)
	if err != nil {
		t.Fatal(err)
	}
	if pi, _, _, err := c.solve(context.Background(), 1); err == nil {
		t.Errorf("solve with a budget of 1 iteration returned %v, want an error", pi)
	}
	if _, iters, res, err := c.solve(context.Background(), maxIter); err != nil || !(res <= fullTol) {
		t.Errorf("solve with the full budget: %d iterations, residual %g, %v", iters, res, err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, _, _, err := c.solve(ctx, maxIter); err != context.Canceled {
		t.Errorf("solve under a cancelled context: %v, want %v", err, context.Canceled)
	}
}
