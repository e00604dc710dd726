// Command layerbench is the repository's end-to-end and per-layer
// benchmark of the P-NUT tool chain. It runs one named workload for a
// fixed time, checks every job's output, and prints one JSON result
// line. See README.md for the workloads, the metrics and how to run it.
//
//	bash layerbench/run.sh --workload design_sweep --seed 1 --seconds 25 --trace 0
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"sync/atomic"
	"time"
)

// processStart is taken as early as the process can: setup_s counts
// from here to the end of the first warm-up job.
var processStart = time.Now()

const (
	setups    = 3 // setup_s is the median of this many setups
	minRounds = 5 // rounds per measured phase, so wall_s is a median
)

// workload is one job mix. Its jobs are generated from the seed (see
// gen.go); run executes a job through the layers' public functions and
// returns the job's check verdict.
type workload interface {
	// setup constructs the models (and, for service, starts the server)
	// and runs one untimed warm-up job. It replaces any earlier setup. A
	// warm-up job that fails its check is reported as a failedCheck.
	setup(ctx context.Context, c tctx) error
	// selfTest perturbs the warm-up's output and reports the checker
	// verdicts, each of which must be a rejection.
	selfTest() []error
	// jobs is the number of jobs in round r.
	jobs(r int) int
	// run executes job i of round r; a non-nil error is a failed check.
	run(ctx context.Context, c tctx, r, i int) error
	// clients is the number of closed-loop callers submitting jobs.
	clients() int
	// minJobs is the fewest jobs a measured phase may have: enough that
	// every 95th percentile it reports has at least 10 samples beyond it.
	minJobs() int
	// peakRSSMB is the VmHWM of the process doing the work.
	peakRSSMB() (float64, error)
	// layers adds the per-layer metrics derived from the spans of the
	// given traced rounds (and of the setups). exact is false when an
	// exact-count metric differed between rounds.
	layers(m metrics, spans []span, rounds []int) (exact bool)
	close() error
}

// failedCheck is a setup error caused by the warm-up job failing its
// check. Like a failed job it marks the run incorrect without stopping it.
type failedCheck struct{ error }

type config struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	server   string // pnut-server binary (service workload)
	work     string // scratch directory inside the checkout
	procs    int    // GOMAXPROCS, sweep workers, reach shards, HTTP clients
}

func main() {
	var cfg config
	var traceFlag int
	flag.StringVar(&cfg.workload, "workload", "", "design_sweep, state_space, exact_analysis or service")
	flag.Int64Var(&cfg.seed, "seed", 1, "workload generator seed")
	flag.Float64Var(&cfg.seconds, "seconds", 15, "measured time per run")
	flag.IntVar(&traceFlag, "trace", 0, "1 = traced run reporting the per-layer metrics")
	flag.StringVar(&cfg.server, "server", "", "pnut-server binary built from this checkout")
	flag.Parse()
	cfg.trace = traceFlag == 1
	cfg.work = ".bench_build/layerbench"
	cfg.procs = min(2, runtime.NumCPU())
	runtime.GOMAXPROCS(cfg.procs)

	res, err := runBench(cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "layerbench:", err)
		os.Exit(1)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "layerbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}

type result struct {
	Correct   bool    `json:"correct"`
	Attempted int     `json:"attempted"`
	Failed    int     `json:"failed"`
	Metrics   metrics `json:"metrics"`
}

func newWorkload(cfg config, tmp string) (workload, error) {
	switch cfg.workload {
	case "design_sweep":
		return &designSweep{cfg: cfg, tmp: tmp}, nil
	case "state_space":
		return &stateSpace{cfg: cfg, tmp: tmp}, nil
	case "exact_analysis":
		return &exactAnalysis{cfg: cfg}, nil
	case "service":
		return &service{cfg: cfg, tmp: tmp}, nil
	}
	return nil, fmt.Errorf("unknown workload %q", cfg.workload)
}

func runBench(cfg config) (*result, error) {
	if err := loadMutex(); err != nil {
		return nil, err
	}
	if err := os.MkdirAll(cfg.work, 0o755); err != nil {
		return nil, err
	}
	tmp, err := os.MkdirTemp(cfg.work, "run-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(tmp)
	w, err := newWorkload(cfg, tmp)
	if err != nil {
		return nil, err
	}
	defer w.close()
	ctx := context.Background()
	tr := newTracer()
	tr.on = cfg.trace

	// Set up several times; the first setup counts from process start.
	correct := true
	var setupS []float64
	for k := 0; k < setups; k++ {
		t0 := time.Now()
		if k == 0 {
			t0 = processStart
		}
		err := w.setup(ctx, tctx{tr: tr, job: fmt.Sprintf("setup%d", k), round: -1 - k})
		var fc failedCheck
		switch {
		case errors.As(err, &fc):
			fmt.Fprintln(os.Stderr, "layerbench:", err)
			correct = false
		case err != nil:
			return nil, fmt.Errorf("setup: %w", err)
		}
		setupS = append(setupS, time.Since(t0).Seconds())
	}
	for _, err := range w.selfTest() {
		if err != nil {
			fmt.Fprintln(os.Stderr, "layerbench: checker self-test:", err)
			correct = false
		}
	}

	budget := time.Duration(cfg.seconds * float64(time.Second))
	res := &result{Metrics: metrics{}}
	if !cfg.trace {
		ph := measure(ctx, w, tr, 0, budget, w.minJobs())
		res.Attempted, res.Failed = ph.attempted, ph.failed
		res.Metrics.set("wall_s", median(ph.roundS), "s")
		res.Metrics.set("setup_s", median(setupS), "s")
		res.Metrics.set("job_p50_ms", percentile(ph.jobMS, 50), "ms")
		res.Metrics.set("job_p95_ms", percentile(ph.jobMS, 95), "ms")
		rss, err := w.peakRSSMB()
		if err != nil {
			return nil, err
		}
		res.Metrics.set("peak_rss_mb", rss, "MB")
		res.Metrics.set("ok_ratio", float64(ph.attempted-ph.failed)/float64(ph.attempted), "ratio")
		fmt.Fprintf(os.Stderr, "layerbench: %s seed %d: %d rounds, %d jobs, %d failed\n%s",
			cfg.workload, cfg.seed, len(ph.roundS), ph.attempted, ph.failed, res.Metrics)
	} else {
		// Half the time untraced, half traced: the difference of the
		// two wall_s medians is the tracing overhead.
		tr.on = false
		plain := measure(ctx, w, tr, 0, budget/2, 0)
		tr.on = true
		traced := measure(ctx, w, tr, len(plain.roundS), budget/2, w.minJobs())
		tr.on = false
		res.Attempted = plain.attempted + traced.attempted
		res.Failed = plain.failed + traced.failed
		spans := tr.snapshot()
		if !w.layers(res.Metrics, spans, traced.rounds) {
			fmt.Fprintln(os.Stderr, "layerbench: an exact-count layer metric differed between rounds")
			correct = false
		}
		res.Metrics.set("tracing.overhead_s", median(traced.roundS)-median(plain.roundS), "s")
		if err := completeLayers(res.Metrics); err != nil {
			return nil, err
		}
		path := filepath.Join(cfg.work, fmt.Sprintf("spans-%s-seed%d.jsonl", cfg.workload, cfg.seed))
		if err := tr.writeJSONL(path); err != nil {
			return nil, err
		}
		fmt.Fprintf(os.Stderr, "layerbench: %s seed %d traced: %d spans in %s\n%s",
			cfg.workload, cfg.seed, len(spans), path, res.Metrics)
	}
	res.Correct = correct && res.Failed == 0
	return res, nil
}

// expectRejected turns a checker verdict on a perturbed output into a
// self-test result: nil when the checker rejected the output, which the
// measured rounds would count as a failed job.
func expectRejected(what string, verdict error) error {
	if verdict == nil {
		return fmt.Errorf("%s passed its check", what)
	}
	return nil
}

// phase is the outcome of a sequence of measured rounds.
type phase struct {
	rounds            []int
	roundS            []float64 // host time per round
	jobMS             []float64 // submit-to-checked-result time per job
	attempted, failed int
}

// measure runs rounds first, first+1, ... until the budget is spent and
// at least minRounds rounds and minJobs jobs are done. A round's jobs
// are pulled by w.clients() closed-loop callers.
func measure(ctx context.Context, w workload, tr *tracer, first int, budget time.Duration, minJobs int) phase {
	var ph phase
	start := time.Now()
	for r := first; ; r++ {
		n := w.jobs(r)
		lat := make([]float64, n)
		var next, failed atomic.Int64
		var wg sync.WaitGroup
		t0 := time.Now()
		for k := 0; k < w.clients(); k++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for {
					i := int(next.Add(1) - 1)
					if i >= n {
						return
					}
					c := tctx{tr: tr, job: fmt.Sprintf("r%d/j%d", r, i), round: r}
					js := time.Now()
					c, sp := c.start("job")
					err := w.run(ctx, c, r, i)
					sp.end(0)
					lat[i] = float64(time.Since(js).Nanoseconds()) / 1e6
					if err != nil {
						failed.Add(1)
						fmt.Fprintf(os.Stderr, "layerbench: round %d job %d failed its check: %v\n", r, i, err)
					}
				}
			}()
		}
		wg.Wait()
		ph.roundS = append(ph.roundS, time.Since(t0).Seconds())
		ph.rounds = append(ph.rounds, r)
		ph.jobMS = append(ph.jobMS, lat...)
		ph.attempted += n
		ph.failed += int(failed.Load())
		elapsed := time.Since(start)
		enough := len(ph.roundS) >= minRounds && len(ph.jobMS) >= minJobs
		if elapsed >= budget && enough || elapsed >= 6*budget {
			return ph
		}
	}
}

// perLayer lists every per-layer metric with its unit, as BENCHMARK.json
// does. A traced run reports all of them; a layer the workload never
// calls reads 0.
var perLayer = []struct{ name, unit string }{
	{"pipeline.build_ms", "ms"},
	{"dist.execute_ms", "ms"}, {"dist.cells", "count"}, {"dist.cells_per_s", "1/s"},
	{"experiment.run_ms", "ms"}, {"experiment.reps_per_s", "1/s"},
	{"sim.run_ms", "ms"}, {"sim.events", "count"}, {"sim.ns_per_event", "ns"},
	{"trace.col_bytes", "B"}, {"trace.replay_ms", "ms"}, {"trace.records_per_s", "1/s"},
	{"query.eval_ms", "ms"},
	{"modelgen.build_ms", "ms"},
	{"reach.build_ms", "ms"}, {"reach.states", "count"}, {"reach.states_per_s", "1/s"},
	{"reach.spill_build_ms", "ms"}, {"reach.spill_states_per_s", "1/s"},
	{"reach.timed_build_ms", "ms"}, {"reach.timed_states", "count"}, {"reach.timed_states_per_s", "1/s"},
	{"reach.ctl_ms", "ms"}, {"reach.coverability_ms", "ms"},
	{"analytic.evaluate_ms", "ms"}, {"analytic.states", "count"}, {"analytic.solve_ms", "ms"},
	{"analytic.max_relerr", "ratio"},
	{"server.admit_p50_ms", "ms"}, {"server.wait_p50_ms", "ms"},
	{"server.miss_p50_ms", "ms"}, {"server.miss_p95_ms", "ms"}, {"server.hit_p50_ms", "ms"},
	{"cache.hit_ratio", "ratio"}, {"server.refused", "count"},
	{"server.jobs_retained", "count"}, {"server.rss_growth_mb", "MB"},
	{"tracing.overhead_s", "s"},
}

// completeLayers checks the workload's per-layer metrics against
// perLayer and adds the ones it did not report as 0.
func completeLayers(m metrics) error {
	known := map[string]string{}
	for _, l := range perLayer {
		known[l.name] = l.unit
		if _, ok := m[l.name]; !ok {
			m.set(l.name, 0, l.unit)
		}
	}
	for name, v := range m {
		if unit, ok := known[name]; !ok || unit != v.Unit {
			return fmt.Errorf("per-layer metric %s (%s) is not in the per-layer table", name, v.Unit)
		}
	}
	return nil
}
