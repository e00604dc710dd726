// pnut-bench is the engine's checked-in perf trajectory: it times the
// indexed event scheduler on fixed members of the modelgen families and
// emits a JSON report (events/sec, ns/event, allocs/event per net
// size), plus a reach_build scenario timing the sharded state-space
// exploration in states/sec, an informational reach_coverability
// scenario timing the Karp-Miller search on the same state space, and
// an informational analytic_processor scenario recording the exact
// steady-state solve of the Section 2 processor. The repository
// commits one such report as BENCH_sim.json;
// CI regenerates it and gates with -baseline, so a change that slows
// the hot loop or puts an allocation back on the firing path fails the
// build instead of landing silently.
//
// Raw events/sec is machine-bound, so the gate normalizes by a
// calibration score — a fixed integer-mixing loop timed on the same
// machine in the same process — before comparing against the baseline:
// only the machine-independent ratio events_per_sec/calibration must
// stay within -tolerance. allocs/event is compared absolutely (its
// budget is zero on any machine).
//
//	pnut-bench -out BENCH_sim.json                      # regenerate
//	pnut-bench -baseline BENCH_sim.json -tolerance 0.1  # gate
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"runtime"
	"time"

	"repro/internal/analytic"
	"repro/internal/modelgen"
	"repro/internal/petri"
	"repro/internal/pipeline"
	"repro/internal/reach"
	"repro/internal/server"
	"repro/internal/sim"
)

// benchCase is one fixed workload of the trajectory. Shapes and seeds
// are frozen: editing them invalidates every committed baseline.
type benchCase struct {
	Name    string `json:"name"`
	Family  string `json:"family"`
	Stages  int    `json:"stages,omitempty"` // deep_pipeline
	Width   int    `json:"width,omitempty"`  // fork_join
	Depth   int    `json:"depth,omitempty"`  // fork_join
	Tokens  int    `json:"tokens,omitempty"`
	Horizon int64  `json:"horizon"`
	// Store/SpillBudget select the reach cases' marking store (empty =
	// in-memory). The spill case times the same exploration with the
	// store forced to disk, so the trajectory tracks the cost of
	// exceeding the memory budget.
	Store       string `json:"store,omitempty"`
	SpillBudget int64  `json:"spill_budget,omitempty"`
}

func (c benchCase) build() *petri.Net {
	switch c.Family {
	case "deep_pipeline":
		return modelgen.DeepPipeline(c.Stages, c.Tokens, 1)
	case "fork_join":
		return modelgen.ForkJoin(c.Width, c.Depth, 1)
	}
	panic("unknown family " + c.Family)
}

var cases = []benchCase{
	{Name: "deep_pipeline_64", Family: "deep_pipeline", Stages: 64, Tokens: 8, Horizon: 40_000},
	{Name: "deep_pipeline_256", Family: "deep_pipeline", Stages: 256, Tokens: 32, Horizon: 20_000},
	{Name: "deep_pipeline_1024", Family: "deep_pipeline", Stages: 1024, Tokens: 64, Horizon: 8_000},
	{Name: "fork_join_32x8", Family: "fork_join", Width: 32, Depth: 8, Horizon: 60_000},
}

// reachCases are the exhaustive-exploration workloads: a full untimed
// reach.Build per case, measured in states/sec. Shapes are frozen like
// the engine cases; Horizon is unused (the build is exhaustive).
var reachCases = []benchCase{
	{Name: "reach_fork_join_7x4", Family: "fork_join", Width: 7, Depth: 4},
	// The same state space with a tiny in-memory budget: nearly every
	// sealed marking block round-trips through the spill file, pricing
	// the disk path relative to reach_fork_join_7x4 above.
	{Name: "reach_build_spill", Family: "fork_join", Width: 7, Depth: 4, Store: "spill", SpillBudget: 64 << 10},
}

// measurement is one case's results.
type measurement struct {
	benchCase
	Events        int64   `json:"events"`
	NsPerEvent    float64 `json:"ns_per_event"`
	EventsPerSec  float64 `json:"events_per_sec"`
	AllocsPerEvnt float64 `json:"allocs_per_event"`
	BytesPerEvent float64 `json:"bytes_per_event"`
	// Normalized is the best events-per-second-to-calibration ratio
	// over the paired runs — the machine-portable figure the baseline
	// gate compares. Calibration is the pairing run's score.
	Normalized  float64 `json:"normalized"`
	Calibration float64 `json:"calibration_score"`
}

// reachMeasurement is one reach_build result: how fast the sharded
// frontier search enumerates a fixed state space. The state count is
// part of the record — it is exact and must never move between runs.
type reachMeasurement struct {
	Name         string  `json:"name"`
	Family       string  `json:"family"`
	Width        int     `json:"width,omitempty"`
	Depth        int     `json:"depth,omitempty"`
	States       int     `json:"states"`
	StatesPerSec float64 `json:"states_per_sec"`
	Normalized   float64 `json:"normalized"`
	Calibration  float64 `json:"calibration_score"`
}

// coverabilityCase is the Karp-Miller scenario: reach.Coverability on
// the reach_fork_join_7x4 net, a bounded net whose tree has one node
// per reachable marking.
var coverabilityCase = benchCase{Name: "reach_coverability", Family: "fork_join", Width: 7, Depth: 4}

// coverabilityMeasurement is one reach_coverability result. States is
// the net's exact reachable-state count (the tree's node count on a
// bounded net), so StatesPerSec compares with the reach_build cases.
type coverabilityMeasurement struct {
	Name         string  `json:"name"`
	Family       string  `json:"family"`
	Width        int     `json:"width"`
	Depth        int     `json:"depth"`
	States       int     `json:"states"`
	StatesPerSec float64 `json:"states_per_sec"`
}

// serverMeasurement is one simulation-service scenario: jobs/sec
// through the full HTTP admission + queue + runner + render stack.
// The cold case simulates every job (distinct seeds); the warm case
// resubmits one job so every response is served from the
// content-addressed result cache. The cold/warm spread is the point:
// it records what the cache is worth end to end.
type serverMeasurement struct {
	Name        string  `json:"name"`
	Jobs        int     `json:"jobs"`
	JobsPerSec  float64 `json:"jobs_per_sec"`
	Normalized  float64 `json:"normalized"`
	Calibration float64 `json:"calibration_score"`
}

// analyticMeasurement is the exact steady-state solve of the default
// Section 2 processor. SolveMs is the fastest analytic.Evaluate minus
// the fastest reach.BuildTimed of the same net; States, Iterations and
// Residual are exact and repeat on every run.
type analyticMeasurement struct {
	Name       string  `json:"name"`
	States     int     `json:"states"`
	BuildMs    float64 `json:"build_ms"`
	EvaluateMs float64 `json:"evaluate_ms"`
	SolveMs    float64 `json:"solve_ms"`
	Iterations int     `json:"iterations"`
	Residual   float64 `json:"residual"`
}

// report is the BENCH_sim.json schema.
type report struct {
	GoOS   string        `json:"goos"`
	GoArch string        `json:"goarch"`
	NumCPU int           `json:"num_cpu"`
	Cases  []measurement `json:"cases"`
	// Reach holds the state-space exploration scenarios; gated on the
	// normalized states/sec figure like the engine cases.
	Reach []reachMeasurement `json:"reach,omitempty"`
	// Server holds the service scenarios; compared informationally (the
	// HTTP path is scheduler-noisy, so it records trajectory rather than
	// gating the build).
	Server []serverMeasurement `json:"server,omitempty"`
	// Analytic holds the exact-solve scenario; informational until the
	// trajectory gates on a measured spread.
	Analytic []analyticMeasurement `json:"analytic,omitempty"`
	// Coverability holds the Karp-Miller scenario; informational like
	// Analytic.
	Coverability []coverabilityMeasurement `json:"coverability,omitempty"`
}

// calibrate times a fixed splitmix64-style mixing loop and returns
// iterations per second: a proxy for single-core integer speed, so
// reports from different machines compare on Normalized rather than
// raw throughput. Each timed engine run is paired with its own
// calibration taken immediately before it, so load and CPU-frequency
// swings during the benchmark cancel out of the normalized figure.
func calibrate() float64 {
	const iters = 1 << 23
	x := uint64(0x9e3779b97f4a7c15)
	start := time.Now()
	for i := 0; i < iters; i++ {
		x += 0x9e3779b97f4a7c15
		z := x
		z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
		z = (z ^ (z >> 27)) * 0x94d049bb133111eb
		x ^= z >> 31
	}
	el := time.Since(start).Seconds()
	if x == 0 { // defeat dead-code elimination
		fmt.Fprintln(os.Stderr)
	}
	return iters / el
}

// measure runs one case repeat times on a warm engine and keeps the
// fastest run (least-noise estimator for a deterministic workload).
func measure(c benchCase, repeat int) (measurement, error) {
	net := c.build()
	eng := sim.NewEngine(net)
	opt := sim.Options{Seed: 1, Horizon: c.Horizon}
	// Warm-up grows the engine's buffers and faults the code in.
	res, err := eng.Run(context.Background(), nil, opt)
	if err != nil {
		return measurement{}, fmt.Errorf("%s: %w", c.Name, err)
	}
	if res.Ends == 0 {
		return measurement{}, fmt.Errorf("%s: no events simulated", c.Name)
	}
	var (
		bestNs, bestNorm, bestCal float64
		allocs, bytes             uint64
		before, after             runtime.MemStats
	)
	for r := 0; r < repeat; r++ {
		cal := calibrate()
		runtime.GC()
		runtime.ReadMemStats(&before)
		start := time.Now()
		res, err = eng.Run(context.Background(), nil, opt)
		el := time.Since(start)
		if err != nil {
			return measurement{}, fmt.Errorf("%s: %w", c.Name, err)
		}
		runtime.ReadMemStats(&after)
		ns := float64(el.Nanoseconds()) / float64(res.Ends)
		if r == 0 || ns < bestNs {
			bestNs = ns
			allocs = after.Mallocs - before.Mallocs
			bytes = after.TotalAlloc - before.TotalAlloc
		}
		if norm := (1e9 / ns) / cal; norm > bestNorm {
			bestNorm, bestCal = norm, cal
		}
	}
	return measurement{
		benchCase:     c,
		Events:        res.Ends,
		NsPerEvent:    bestNs,
		EventsPerSec:  1e9 / bestNs,
		AllocsPerEvnt: float64(allocs) / float64(res.Ends),
		BytesPerEvent: float64(bytes) / float64(res.Ends),
		Normalized:    bestNorm,
		Calibration:   bestCal,
	}, nil
}

// measureReach runs one exhaustive build repeat times and keeps the
// fastest run. Shards stays 0 (GOMAXPROCS) — the production default —
// and never changes the graph, so States doubles as a sanity pin. A
// spill case must actually spill, or the measurement is vacuous.
func measureReach(c benchCase, repeat int) (reachMeasurement, error) {
	ctx := context.Background()
	net := c.build()
	opt := reach.Options{MaxStates: 1_000_000, Store: c.Store, SpillBudget: c.SpillBudget}
	g, err := reach.Build(ctx, net, opt) // warm-up
	if err != nil {
		return reachMeasurement{}, fmt.Errorf("%s: %w", c.Name, err)
	}
	if g.Truncated {
		g.Close()
		return reachMeasurement{}, fmt.Errorf("%s: truncated at %d states", c.Name, len(g.Nodes))
	}
	if c.Store == reach.StoreSpill && g.SpilledBytes() == 0 {
		g.Close()
		return reachMeasurement{}, fmt.Errorf("%s: spill store never spilled (budget %d, %d store bytes)",
			c.Name, c.SpillBudget, g.StoreBytes())
	}
	g.Close()
	var best reachMeasurement
	for r := 0; r < repeat; r++ {
		cal := calibrate()
		start := time.Now()
		g, err = reach.Build(ctx, net, opt)
		el := time.Since(start).Seconds()
		if err != nil {
			return reachMeasurement{}, fmt.Errorf("%s: %w", c.Name, err)
		}
		sps := float64(len(g.Nodes)) / el
		if norm := sps / cal; norm > best.Normalized {
			best = reachMeasurement{
				Name: c.Name, Family: c.Family, Width: c.Width, Depth: c.Depth,
				States: len(g.Nodes), StatesPerSec: sps,
				Normalized: norm, Calibration: cal,
			}
		}
		g.Close()
	}
	return best, nil
}

// measureCoverability runs the Karp-Miller search on c's net repeat
// times after one warm-up and keeps the fastest run. The net is
// bounded, so any unbounded place means the search itself is wrong.
func measureCoverability(c benchCase, repeat int) (coverabilityMeasurement, error) {
	ctx := context.Background()
	net := c.build()
	opt := reach.Options{MaxStates: 1_000_000}
	g, err := reach.Build(ctx, net, opt)
	if err != nil {
		return coverabilityMeasurement{}, fmt.Errorf("%s: %w", c.Name, err)
	}
	states := len(g.Nodes)
	g.Close()
	m := coverabilityMeasurement{Name: c.Name, Family: c.Family, Width: c.Width, Depth: c.Depth, States: states}
	for r := 0; r <= repeat; r++ { // run 0 warms up
		start := time.Now()
		unbounded, err := reach.Coverability(ctx, net, opt)
		el := time.Since(start).Seconds()
		if err != nil {
			return m, fmt.Errorf("%s: %w", c.Name, err)
		}
		if len(unbounded) > 0 {
			return m, fmt.Errorf("%s: bounded net reported unbounded places %v", c.Name, unbounded)
		}
		if sps := float64(states) / el; r > 0 && sps > m.StatesPerSec {
			m.StatesPerSec = sps
		}
	}
	return m, nil
}

// analyticStates pins the default processor's timed state count.
const analyticStates = 3568

// measureAnalytic times the timed build and the full exact evaluation
// of pipeline.Processor(DefaultParams()) repeat times each and keeps
// the fastest of each.
func measureAnalytic(repeat int) (analyticMeasurement, error) {
	ctx := context.Background()
	net, err := pipeline.Processor(pipeline.DefaultParams())
	if err != nil {
		return analyticMeasurement{}, err
	}
	opt := reach.Options{MaxStates: 500_000}
	m := analyticMeasurement{Name: "analytic_processor"}
	for r := 0; r <= repeat; r++ { // run 0 warms up
		start := time.Now()
		g, err := reach.BuildTimed(ctx, net, opt)
		build := time.Since(start).Seconds() * 1e3
		if err != nil {
			return m, fmt.Errorf("%s: %w", m.Name, err)
		}
		start = time.Now()
		res, err := analytic.Evaluate(ctx, net, opt)
		eval := time.Since(start).Seconds() * 1e3
		if err != nil {
			return m, fmt.Errorf("%s: %w", m.Name, err)
		}
		if len(g.Nodes) != analyticStates || res.States != analyticStates {
			return m, fmt.Errorf("%s: %d timed states built, %d solved, want %d", m.Name, len(g.Nodes), res.States, analyticStates)
		}
		if r == 0 {
			continue
		}
		if r == 1 || build < m.BuildMs {
			m.BuildMs = build
		}
		if r == 1 || eval < m.EvaluateMs {
			m.EvaluateMs = eval
		}
		m.States, m.Iterations, m.Residual = res.States, res.Iterations, res.Residual
	}
	m.SolveMs = m.EvaluateMs - m.BuildMs
	return m, nil
}

// measureServer drives the simulation service in-process: a real
// Server behind httptest, real HTTP round-trips, ?wait=1 submissions.
// Cold jobs use a fresh seed each (every one simulates); warm jobs
// resubmit the first cold spec (every one is a cache hit).
func measureServer(repeat int) ([]serverMeasurement, error) {
	srv := server.New(server.Config{QueueDepth: 64, CacheBytes: 64 << 20})
	srv.Start()
	ts := httptest.NewServer(srv.Handler())
	defer func() {
		ts.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		srv.Drain(ctx)
	}()

	specFor := func(seed int64) []byte {
		return []byte(fmt.Sprintf(
			`{"model":"cache","axes":["DHitRatio=0.5,0.9"],"reps":2,"seed":%d,"horizon":300,"format":"csv","throughput":["Issue"]}`,
			seed))
	}
	submit := func(body []byte) error {
		resp, err := http.Post(ts.URL+"/v1/jobs?wait=1", "application/json", bytes.NewReader(body))
		if err != nil {
			return err
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			return fmt.Errorf("server scenario: job status %d", resp.StatusCode)
		}
		return nil
	}

	// Warm-up: fault the whole path in (and seed the warm-case entry).
	warmSpec := specFor(1)
	if err := submit(warmSpec); err != nil {
		return nil, err
	}

	const coldJobs, warmJobs = 8, 400
	seed := int64(2)
	var out []serverMeasurement
	for _, sc := range []struct {
		name string
		jobs int
		body func(i int) []byte
	}{
		{"server_cold", coldJobs, func(int) []byte { seed++; return specFor(seed) }},
		{"server_warm_cache", warmJobs, func(int) []byte { return warmSpec }},
	} {
		var best serverMeasurement
		for r := 0; r < repeat; r++ {
			cal := calibrate()
			start := time.Now()
			for i := 0; i < sc.jobs; i++ {
				if err := submit(sc.body(i)); err != nil {
					return nil, err
				}
			}
			el := time.Since(start).Seconds()
			jps := float64(sc.jobs) / el
			if norm := jps / cal; norm > best.Normalized {
				best = serverMeasurement{
					Name: sc.name, Jobs: sc.jobs,
					JobsPerSec: jps, Normalized: norm, Calibration: cal,
				}
			}
		}
		out = append(out, best)
	}
	return out, nil
}

// compare gates rep against the baseline: each case's Normalized score
// must be within tol of the baseline's, and allocs/event must not grow
// past the zero budget. Returns the number of failures.
func compare(rep, base *report, tol float64) int {
	byName := make(map[string]measurement, len(base.Cases))
	for _, m := range base.Cases {
		byName[m.Name] = m
	}
	failures := 0
	for _, m := range rep.Cases {
		b, ok := byName[m.Name]
		if !ok {
			fmt.Fprintf(os.Stderr, "pnut-bench: %-20s not in baseline (informational)\n", m.Name)
			continue
		}
		floor := b.Normalized * (1 - tol)
		status := "ok"
		if m.Normalized < floor {
			status = "REGRESSION"
			failures++
		}
		fmt.Fprintf(os.Stderr, "pnut-bench: %-20s %10.0f events/s (normalized %.3g, baseline %.3g, floor %.3g) %s\n",
			m.Name, m.EventsPerSec, m.Normalized, b.Normalized, floor, status)
		// The allocation budget is absolute: the firing path allocates
		// nothing, so allow only per-run noise.
		if m.AllocsPerEvnt > 0.01 {
			fmt.Fprintf(os.Stderr, "pnut-bench: %-20s %.4f allocs/event exceeds the zero budget\n", m.Name, m.AllocsPerEvnt)
			failures++
		}
	}
	// Exploration cases gate like the engine cases, on the normalized
	// states/sec ratio; the state count is exact and must not move.
	byReach := make(map[string]reachMeasurement, len(base.Reach))
	for _, m := range base.Reach {
		byReach[m.Name] = m
	}
	for _, m := range rep.Reach {
		b, ok := byReach[m.Name]
		if !ok {
			fmt.Fprintf(os.Stderr, "pnut-bench: %-20s not in baseline (informational)\n", m.Name)
			continue
		}
		floor := b.Normalized * (1 - tol)
		status := "ok"
		if m.Normalized < floor {
			status = "REGRESSION"
			failures++
		}
		fmt.Fprintf(os.Stderr, "pnut-bench: %-20s %10.0f states/s (normalized %.3g, baseline %.3g, floor %.3g) %s\n",
			m.Name, m.StatesPerSec, m.Normalized, b.Normalized, floor, status)
		if m.States != b.States {
			fmt.Fprintf(os.Stderr, "pnut-bench: %-20s explored %d states, baseline %d — the graph itself changed\n",
				m.Name, m.States, b.States)
			failures++
		}
	}
	// Server scenarios are trajectory, not a gate: the HTTP path's
	// latency is dominated by the network stack and scheduler, too noisy
	// for a build-failing floor.
	byServer := make(map[string]serverMeasurement, len(base.Server))
	for _, m := range base.Server {
		byServer[m.Name] = m
	}
	for _, m := range rep.Server {
		if b, ok := byServer[m.Name]; ok {
			fmt.Fprintf(os.Stderr, "pnut-bench: %-20s %10.0f jobs/s (normalized %.3g, baseline %.3g, informational)\n",
				m.Name, m.JobsPerSec, m.Normalized, b.Normalized)
		} else {
			fmt.Fprintf(os.Stderr, "pnut-bench: %-20s %10.0f jobs/s (not in baseline, informational)\n",
				m.Name, m.JobsPerSec)
		}
	}
	// The analytic and coverability scenarios are trajectory, not a gate.
	for _, m := range rep.Analytic {
		fmt.Fprintf(os.Stderr, "pnut-bench: %-20s solve %.2f ms, %d iterations, residual %.3g (informational)\n",
			m.Name, m.SolveMs, m.Iterations, m.Residual)
	}
	for _, m := range rep.Coverability {
		fmt.Fprintf(os.Stderr, "pnut-bench: %-20s %10.0f states/s (informational)\n", m.Name, m.StatesPerSec)
	}
	return failures
}

func main() {
	out := flag.String("out", "", "write the JSON report to this file (default stdout)")
	baseline := flag.String("baseline", "", "committed BENCH_sim.json to gate against")
	tol := flag.Float64("tolerance", 0.10, "allowed fractional drop of normalized events/sec vs -baseline")
	repeat := flag.Int("repeat", 3, "timed runs per case (fastest wins)")
	noServer := flag.Bool("no-server", false, "skip the simulation-service scenarios")
	flag.Parse()

	rep := &report{
		GoOS:   runtime.GOOS,
		GoArch: runtime.GOARCH,
		NumCPU: runtime.NumCPU(),
	}
	for _, c := range cases {
		m, err := measure(c, *repeat)
		if err != nil {
			fatal(err)
		}
		rep.Cases = append(rep.Cases, m)
		fmt.Fprintf(os.Stderr, "pnut-bench: %-20s %8d events  %7.1f ns/event  %10.0f events/s  %.4f allocs/event\n",
			m.Name, m.Events, m.NsPerEvent, m.EventsPerSec, m.AllocsPerEvnt)
	}
	for _, c := range reachCases {
		m, err := measureReach(c, *repeat)
		if err != nil {
			fatal(err)
		}
		rep.Reach = append(rep.Reach, m)
		fmt.Fprintf(os.Stderr, "pnut-bench: %-20s %8d states  %10.0f states/s\n",
			m.Name, m.States, m.StatesPerSec)
	}
	cm, err := measureCoverability(coverabilityCase, *repeat)
	if err != nil {
		fatal(err)
	}
	rep.Coverability = []coverabilityMeasurement{cm}
	fmt.Fprintf(os.Stderr, "pnut-bench: %-20s %8d states  %10.0f states/s\n", cm.Name, cm.States, cm.StatesPerSec)
	am, err := measureAnalytic(*repeat)
	if err != nil {
		fatal(err)
	}
	rep.Analytic = []analyticMeasurement{am}
	fmt.Fprintf(os.Stderr, "pnut-bench: %-20s %8d states  solve %.2f ms of %.2f ms  %d iterations  residual %.3g\n",
		am.Name, am.States, am.SolveMs, am.EvaluateMs, am.Iterations, am.Residual)
	if !*noServer {
		sm, err := measureServer(*repeat)
		if err != nil {
			fatal(err)
		}
		rep.Server = sm
		for _, m := range sm {
			fmt.Fprintf(os.Stderr, "pnut-bench: %-20s %8d jobs    %10.0f jobs/s\n", m.Name, m.Jobs, m.JobsPerSec)
		}
	}

	enc, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		fatal(err)
	}
	enc = append(enc, '\n')
	if *out == "" {
		os.Stdout.Write(enc)
	} else if err := os.WriteFile(*out, enc, 0o644); err != nil {
		fatal(err)
	}

	if *baseline != "" {
		src, err := os.ReadFile(*baseline)
		if err != nil {
			fatal(err)
		}
		var base report
		if err := json.Unmarshal(src, &base); err != nil {
			fatal(fmt.Errorf("parsing %s: %w", *baseline, err))
		}
		if n := compare(rep, &base, *tol); n > 0 {
			fatal(fmt.Errorf("%d case(s) regressed beyond %.0f%% of the committed baseline", n, *tol*100))
		}
		fmt.Fprintln(os.Stderr, "pnut-bench: within baseline tolerance")
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "pnut-bench:", err)
	os.Exit(1)
}
