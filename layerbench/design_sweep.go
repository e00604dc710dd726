package main

import (
	"bytes"
	"context"
	"encoding/csv"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strconv"
	"sync/atomic"

	"repro/internal/dist"
	"repro/internal/experiment"
	"repro/internal/petri"
	"repro/internal/pipeline"
	"repro/internal/query"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/trace"
)

// designSweep is the paper's Section 2 workflow: sweep a region of the
// cached-processor design space, replicate the best point, capture a
// trace of it and read the trace back.
type designSweep struct {
	cfg     config
	tmp     string
	list    []sweepJob
	warmJob sweepJob
	warm    *sweepOut
}

// sweepOut is everything a design_sweep job produced that its check
// reads.
type sweepOut struct {
	res          *experiment.SweepResult
	csv          []byte
	cells        int64
	repReps      int
	repSummaries []stats.Summary
	live, replay stats.Snapshot
	queries      []query.Result
}

// sweepQueries returns the Section 4.4 trace queries for a trace of a
// point with buf instruction-buffer words that ended at time final. The
// last query skips the final 50 cycles, whose bus transfers the trace
// may cut off.
func sweepQueries(buf int, final petri.Time) []string {
	return []string{
		"forall s in S [ Bus_busy(s) + Bus_free(s) <= 1 ]",
		fmt.Sprintf("exists s in (S - {#0}) [ Empty_I_buffers(s) == %d ]", buf),
		"exists s in S [ exec_type_5(s) > 0 ]",
		fmt.Sprintf("forall s in {s2 in S | Bus_busy(s2) && time(s2) < %d} [ inev(s, Bus_free(C), true) ]", final-50),
	}
}

// queryMustHold marks the queries that hold on every trace of the model;
// the others only have to evaluate.
var queryMustHold = []bool{true, false, false, true}

func (w *designSweep) clients() int { return 1 }
func (w *designSweep) minJobs() int { return 200 }
func (w *designSweep) jobs(int) int { return len(w.list) }
func (w *designSweep) close() error { return nil }

func (w *designSweep) peakRSSMB() (float64, error) { return vmKB("self", "VmHWM") }

func (w *designSweep) setup(ctx context.Context, c tctx) error {
	w.list, w.warmJob = genDesignSweep(w.cfg.seed)
	out, err := w.exec(ctx, c, "warmup", w.warmJob)
	if err != nil {
		return err
	}
	w.warm = out
	if err := checkSweep(w.warmJob, out); err != nil {
		return failedCheck{fmt.Errorf("warm-up job: %w", err)}
	}
	return nil
}

func (w *designSweep) run(ctx context.Context, c tctx, r, i int) error {
	out, err := w.exec(ctx, c, fmt.Sprintf("r%d-j%d", r, i), w.list[i])
	if err != nil {
		return err
	}
	return checkSweep(w.list[i], out)
}

// exec runs one job through dist, experiment, sim, trace, stats and
// query.
func (w *designSweep) exec(ctx context.Context, c tctx, id string, j sweepJob) (*sweepOut, error) {
	out := &sweepOut{}
	metricsOf := []experiment.Metric{experiment.Throughput("Issue"), experiment.Utilization("Bus_busy")}
	opt := experiment.SweepOptions{
		Axes: []experiment.Axis{
			{Name: "DHitRatio", Values: j.DHit[:]},
			{Name: "MemoryCycles", Values: j.Mem[:]},
			{Name: "BufferWords", Values: j.Buf[:]},
		},
		Reps:     j.GridReps,
		Workers:  1, // one worker per shard: shards x workers = procs
		BaseSeed: j.GridSeed,
		Sim:      sim.Options{MaxStarts: j.GridStarts},
		Metrics:  metricsOf,
	}
	// 1. The grid through the distributed coordinator.
	err := c.record("dist.execute", func(c tctx) (int64, error) {
		opt.Build = func(pt experiment.Point) (net *petri.Net, err error) {
			err = c.record("pipeline.build", func(tctx) (int64, error) {
				net, err = pipeline.SweepProcessor(true, pt.Names, pt.Values)
				return 0, err
			})
			return net, err
		}
		local := dist.LocalRunner(opt)
		var cells atomic.Int64
		counting := func(ctx context.Context, s dist.Span, emit func(experiment.CellRecord) error) error {
			return local(ctx, s, func(rec experiment.CellRecord) error {
				cells.Add(1)
				return emit(rec)
			})
		}
		journal := filepath.Join(w.tmp, id+".journal")
		defer os.Remove(journal)
		res, err := dist.Execute(ctx, opt, dist.Options{Shards: w.cfg.procs, Runner: counting, Journal: journal})
		out.res, out.cells = res, cells.Load()
		return out.cells, err
	})
	if err != nil {
		return nil, err
	}
	var b bytes.Buffer
	if err := out.res.WriteCSV(&b); err != nil {
		return nil, err
	}
	out.csv = b.Bytes()

	// 2. Replicate the point with the highest instruction rate.
	best := out.res.Points[0]
	for _, p := range out.res.Points[1:] {
		if p.Summaries[0].Mean > best.Summaries[0].Mean {
			best = p
		}
	}
	net, err := pipeline.SweepProcessor(true, best.Point.Names, best.Point.Values)
	if err != nil {
		return nil, err
	}
	err = c.record("experiment.run", func(tctx) (int64, error) {
		er, err := experiment.Run(ctx, net, experiment.Options{
			Reps: j.RepReps, Workers: w.cfg.procs, BaseSeed: j.RepSeed,
			Sim: sim.Options{MaxStarts: j.RepStarts}, Metrics: metricsOf,
		})
		if err != nil {
			return 0, err
		}
		out.repReps, out.repSummaries = er.Reps, er.Summaries
		return int64(er.Reps), nil
	})
	if err != nil {
		return nil, err
	}

	// 3. One run of the point, captured as a columnar trace while a
	// statistics accumulator watches live.
	h := trace.HeaderOf(net)
	live := stats.New(h)
	var col bytes.Buffer
	cw := trace.NewColWriter(&col, h, false)
	err = c.record("sim.run", func(tctx) (int64, error) {
		res, err := sim.NewEngine(net).Run(ctx, trace.Tee{live, cw}, sim.Options{Seed: j.TraceSeed, MaxStarts: j.TraceStarts})
		return res.Ends, err
	})
	if err != nil {
		return nil, err
	}
	out.live = live.Snapshot()
	err = c.record("trace.col_flush", func(tctx) (int64, error) {
		err := cw.Flush()
		return int64(col.Len()), err
	})
	if err != nil {
		return nil, err
	}

	// 4. Replay the trace into stats and the query builder, then ask
	// the Section 4.4 questions.
	replay := stats.New(h)
	qb := query.NewBuilder(h)
	err = c.record("trace.replay", func(tctx) (int64, error) {
		n, err := trace.Copy(trace.NewColReader(bytes.NewReader(col.Bytes())), trace.Tee{replay, qb})
		return int64(n), err
	})
	if err != nil {
		return nil, err
	}
	out.replay = replay.Snapshot()
	buf, _ := best.Point.Value("BufferWords")
	err = c.record("query.eval", func(tctx) (int64, error) {
		seq := qb.Seq()
		for _, src := range sweepQueries(int(buf), seq.FinalTime) {
			res, err := query.Check(seq, src)
			if err != nil {
				return 0, err
			}
			out.queries = append(out.queries, res)
		}
		return int64(seq.Len()), nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// checkSweep is the design_sweep output check.
func checkSweep(j sweepJob, o *sweepOut) error {
	points := len(j.DHit) * len(j.Mem) * len(j.Buf)
	if want := int64(points * j.GridReps); o.cells != want {
		return fmt.Errorf("dist delivered %d cells, want %d", o.cells, want)
	}
	if len(o.res.Points) != points || o.res.TotalReps != points*j.GridReps {
		return fmt.Errorf("sweep has %d points and %d replications, want %d and %d",
			len(o.res.Points), o.res.TotalReps, points, points*j.GridReps)
	}
	if err := checkSweepCSV(o.res, o.csv); err != nil {
		return err
	}
	if o.repReps != j.RepReps {
		return fmt.Errorf("experiment ran %d replications, want %d", o.repReps, j.RepReps)
	}
	for _, s := range o.repSummaries {
		if !(s.Mean > 0 && s.Mean <= 1) {
			return fmt.Errorf("replicated metric mean %v outside (0, 1]", s.Mean)
		}
	}
	if !reflect.DeepEqual(o.live, o.replay) {
		return errors.New("replayed trace statistics differ from the live run's")
	}
	if len(o.queries) != len(queryMustHold) {
		return fmt.Errorf("%d queries evaluated, want %d", len(o.queries), len(queryMustHold))
	}
	for i, must := range queryMustHold {
		if must && !o.queries[i].Holds {
			return fmt.Errorf("query %d fails at state %d", i+1, o.queries[i].Witness)
		}
	}
	return nil
}

// checkSweepCSV checks that the CSV is well formed and says exactly what
// the sweep result says: one header naming the axes and metric columns,
// one row per point, and every number the shortest exact rendering of
// the result's value.
func checkSweepCSV(res *experiment.SweepResult, b []byte) error {
	rows, err := csv.NewReader(bytes.NewReader(b)).ReadAll()
	if err != nil {
		return fmt.Errorf("sweep CSV: %w", err)
	}
	var header []string
	for _, a := range res.Axes {
		header = append(header, a.Name)
	}
	for _, m := range res.MetricNames() {
		header = append(header, m+" mean", m+" ci95", m+" sd")
	}
	if len(rows) != len(res.Points)+1 || !reflect.DeepEqual(rows[0], header) {
		return fmt.Errorf("sweep CSV has %d rows and header %q", len(rows), rows[0])
	}
	for i, p := range res.Points {
		want := append([]float64(nil), p.Point.Values...)
		for _, s := range p.Summaries {
			want = append(want, s.Mean, s.CI95, s.StdDev)
		}
		row := rows[i+1]
		if len(row) != len(want) {
			return fmt.Errorf("sweep CSV row %d has %d fields, want %d", i+1, len(row), len(want))
		}
		for k, f := range row {
			if w := strconv.FormatFloat(want[k], 'g', -1, 64); f != w {
				return fmt.Errorf("sweep CSV row %d field %d = %q, want %s", i+1, k, f, w)
			}
		}
	}
	return nil
}

func (w *designSweep) selfTest() []error {
	var errs []error
	// Flip one bit of every byte of the CSV in turn: each corruption
	// must fail the check and count as a failed job.
	for k := range w.warm.csv {
		bad := *w.warm
		bad.csv = append([]byte(nil), w.warm.csv...)
		bad.csv[k] ^= 1
		errs = append(errs, expectRejected(fmt.Sprintf("CSV with byte %d flipped", k), checkSweep(w.warmJob, &bad)))
	}
	bad := *w.warm
	bad.cells--
	errs = append(errs, expectRejected("dist cell count off by one", checkSweep(w.warmJob, &bad)))
	bad = *w.warm
	bad.replay.TotalEnds++
	errs = append(errs, expectRejected("replayed snapshot off by one event", checkSweep(w.warmJob, &bad)))
	return errs
}

func (w *designSweep) layers(m metrics, spans []span, rounds []int) bool {
	exact := true
	count := func(name string) int64 {
		n, ok := totalsByRound(spans, name).exactCount(rounds)
		exact = exact && ok
		return n
	}
	timeMS := func(name string) float64 { return median(totalsByRound(spans, name).msOf(rounds)) }
	rate := func(name string) float64 { return totalsByRound(spans, name).rate(rounds) }

	m.set("pipeline.build_ms", timeMS("pipeline.build"), "ms")
	m.set("dist.execute_ms", timeMS("dist.execute"), "ms")
	m.set("dist.cells", float64(count("dist.execute")), "count")
	m.set("dist.cells_per_s", rate("dist.execute"), "1/s")
	m.set("experiment.run_ms", timeMS("experiment.run"), "ms")
	m.set("experiment.reps_per_s", rate("experiment.run"), "1/s")
	m.set("sim.run_ms", timeMS("sim.run"), "ms")
	events := count("sim.run")
	m.set("sim.events", float64(events), "count")
	m.set("sim.ns_per_event", nsPer(timeMS("sim.run"), events), "ns")
	m.set("trace.col_bytes", float64(count("trace.col_flush")), "B")
	m.set("trace.replay_ms", timeMS("trace.replay"), "ms")
	m.set("trace.records_per_s", rate("trace.replay"), "1/s")
	m.set("query.eval_ms", timeMS("query.eval"), "ms")
	return exact
}

func nsPer(ms float64, n int64) float64 {
	if n == 0 {
		return 0
	}
	return ms * 1e6 / float64(n)
}
