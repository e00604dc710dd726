package main

// The workload generator. Every job list is a pure function of
// (workload, seed, round): the seed draws the simulation seeds, the
// fork-join delay seeds, the service specs' seeds and metric subsets,
// and the order in which each round's jobs run. The shapes (grid sizes,
// net sizes, firing budgets) are fixed, so the work per round is nearly
// the same for every seed and the exact-count layer metrics repeat
// exactly for a given seed. The executors in the workload files see only
// these lists.

import (
	"fmt"
	"math/rand"
	"strings"
)

// ---- design_sweep ----

// sweepJob evaluates one region of the cached-processor design space:
// a DHitRatio x MemoryCycles x BufferWords grid through dist.Execute,
// replication of the best point with experiment.Run, one run of that
// point captured as a columnar trace, and a replay of the trace into
// stats and the Section 4.4 queries.
type sweepJob struct {
	DHit, Mem, Buf [2]float64
	GridReps       int   // replications per grid point
	GridStarts     int64 // firings per grid cell
	GridSeed       int64
	RepReps        int // experiment.Run replications of the chosen point
	RepStarts      int64
	RepSeed        int64
	TraceStarts    int64 // firings of the trace-capturing run
	TraceSeed      int64
}

// Region axes: every region is one pair per axis, so a round covers the
// whole 2x2x2 product of these pairs.
var (
	sweepDHit = [][2]float64{{0.5, 0.7}, {0.8, 0.95}}
	sweepMem  = [][2]float64{{1, 3}, {5, 8}}
	sweepBuf  = [][2]float64{{4, 6}, {8, 10}}
)

// Each region appears sweepRegionCopies times per round. The first copy
// runs twice the grid replications, so a third of the jobs are heavier
// and job_p95_ms reads their latency rather than the noise tail of
// equal jobs.
const sweepRegionCopies = 3

// genDesignSweep returns the round's jobs and the warm-up job: the first
// region's job as generated, before the shuffle, so the warm-up costs the
// same for every seed.
func genDesignSweep(seed int64) (jobs []sweepJob, warm sweepJob) {
	rng := rand.New(rand.NewSource(seed))
	for c := 0; c < sweepRegionCopies; c++ {
		reps := 2
		if c == 0 {
			reps = 4
		}
		for _, d := range sweepDHit {
			for _, m := range sweepMem {
				for _, b := range sweepBuf {
					jobs = append(jobs, sweepJob{
						DHit: d, Mem: m, Buf: b,
						GridReps: reps, GridStarts: 1500, GridSeed: rng.Int63n(1 << 40),
						RepReps: 4, RepStarts: 1500, RepSeed: rng.Int63n(1 << 40),
						TraceStarts: 4000, TraceSeed: rng.Int63n(1 << 40),
					})
				}
			}
		}
	}
	warm = jobs[0]
	rng.Shuffle(len(jobs), func(i, j int) { jobs[i], jobs[j] = jobs[j], jobs[i] })
	return jobs, warm
}

// ---- state_space ----

// forkJoinShape is one generated net of the modelgen.ForkJoin family;
// its untimed state count is (Depth+1)^Width + 1 whatever the seed.
type forkJoinShape struct{ Width, Depth int }

// stateJob verifies one fork-join net (mem and spill builds, CTL,
// coverability) and explores one processor design point (timed and
// untimed builds).
type stateJob struct {
	FJ     forkJoinShape
	FJSeed int64
	Proc   designPoint
}

// stateShapes span 2 000 to 4 100 states, in wide-shallow to
// narrow-deep forms.
var stateShapes = []forkJoinShape{
	{5, 4}, {4, 6}, {7, 2}, {3, 12}, {11, 1}, {3, 13}, {6, 3}, {4, 7},
}

// stateProcs are the processor design points whose timed and untimed
// graphs each state_space job builds; their sizes are pinned in
// reference.go.
var stateProcs = []string{"proc_mc1_bw2", "proc_mc1_bw4", "proc_mc3_bw2", "cache_mc1_bw2"}

const stateCopies = 3

// genStateSpace returns the round's jobs and the warm-up job (the first
// shape's, before the shuffle).
func genStateSpace(seed int64) (jobs []stateJob, warm stateJob) {
	rng := rand.New(rand.NewSource(seed))
	for c := 0; c < stateCopies; c++ {
		for i, s := range stateShapes {
			jobs = append(jobs, stateJob{
				FJ:     s,
				FJSeed: rng.Int63n(1 << 40),
				Proc:   pointByName(stateProcs[(i+c)%len(stateProcs)]),
			})
		}
	}
	warm = jobs[0]
	rng.Shuffle(len(jobs), func(i, j int) { jobs[i], jobs[j] = jobs[j], jobs[i] })
	return jobs, warm
}

// ---- exact_analysis ----

// analysisPoints is the exact_analysis round: every design point whose
// steady state is solved, each once. The warm-up solves analysisWarm.
var analysisPoints = []string{
	"mutex",
	"decoder_mc1", "decoder_mc3", "decoder_mc5", "decoder_mc8",
	"execution_mc1", "execution_mc3", "execution_mc5", "execution_mc8",
	"proc0_x1_mc1", "proc0_x1_mc2", "proc0_x1_mc3",
	"proc0_x2_mc1", "proc0_x2_mc2", "proc0_x2_mc3",
	"proc0_x12_mc1", "proc0_x12_mc2", "proc0_x12_mc3",
	"cache0_x2_mc1", "cache0_x2_mc2", "cache0_x2_mc3",
	"proc_x1_mc1", "proc_x1_mc2", "cache0_x1_mc1",
}

const analysisWarm = "proc_x1_mc1"

func genExactAnalysis(seed int64) []designPoint {
	rng := rand.New(rand.NewSource(seed))
	jobs := make([]designPoint, len(analysisPoints))
	for i, name := range analysisPoints {
		jobs[i] = pointByName(name)
	}
	rng.Shuffle(len(jobs), func(i, j int) { jobs[i], jobs[j] = jobs[j], jobs[i] })
	return jobs
}

// ---- service ----

// serviceSpec mirrors the pnut-server job spec fields the workload
// uses. Field order and omitempty keep the encoding canonical, so equal
// specs are equal bytes.
type serviceSpec struct {
	Model       string   `json:"model,omitempty"`
	Net         string   `json:"net,omitempty"`
	Axes        []string `json:"axes,omitempty"`
	Reps        int      `json:"reps,omitempty"`
	Seed        int64    `json:"seed,omitempty"`
	Horizon     int64    `json:"horizon,omitempty"`
	MaxStarts   int64    `json:"maxStarts,omitempty"`
	Throughput  []string `json:"throughput,omitempty"`
	Utilization []string `json:"utilization,omitempty"`
	Engine      string   `json:"engine,omitempty"`
	Bound       []string `json:"bound,omitempty"`
	Ctl         []string `json:"ctl,omitempty"`
	Format      string   `json:"format,omitempty"`
}

// goldenSpec is the spec whose CSV is checked in as
// testdata/golden/pnut-sweep.csv.
var goldenSpec = serviceSpec{
	Model: "cache", Axes: []string{"DHitRatio=0.5,0.9", "MemoryCycles=1,5"},
	Reps: 3, Seed: 11, Horizon: 1000, Format: "csv",
	Throughput: []string{"Issue"}, Utilization: []string{"Bus_busy"},
}

// serviceJob is one submission. Kind is "sim", "interp", "reach",
// "analytic" (cold work), "join" (a duplicate of the previous cold job,
// submitted concurrently with it) or "hit" (a resubmission of a spec
// that completed in an earlier round, or of the golden spec).
type serviceJob struct {
	Kind string
	Spec serviceSpec
}

// Service round mix: 10 cold cache sweeps, 5 cold interpreted sweeps,
// 2 reach and 2 analytic engine jobs, 1 join and 4 hits.
const (
	svcSim      = 10
	svcInterp   = 5
	svcReach    = 2
	svcAnalytic = 2
	svcHits     = 4
)

var (
	mutexPlaces = []string{"lock", "idle_a", "idle_b", "want_a", "want_b", "crit_a", "crit_b"}
	mutexTrans  = []string{"request_a", "request_b", "enter_a", "enter_b", "exit_a", "exit_b"}
	mutexCTL    = []string{
		"AG({crit_a + crit_b <= 1})", "AG(EF({crit_a == 1}))", "AG(EF({crit_b == 1}))",
		"EF({want_a == 1 && want_b == 1})", "AG(!deadlock)", "AG({lock + crit_a + crit_b == 1})",
	}
)

// serviceCold returns round r's cold submissions in their run order.
// Spec seeds are unique per (round, job), so every cold job misses.
func serviceCold(seed int64, round int, interpNet, mutexNet string) []serviceJob {
	rng := rand.New(rand.NewSource(seed*1_000_003 + int64(round)*2))
	base := (seed%1_000_000 + 1_000_000) * 1_000_000
	specSeed := func(i int) int64 { return base + int64(round)*1000 + int64(i) }
	var jobs []serviceJob
	for i := 0; i < svcSim; i++ {
		d := sweepDHit[rng.Intn(len(sweepDHit))]
		m := sweepMem[rng.Intn(len(sweepMem))]
		jobs = append(jobs, serviceJob{Kind: "sim", Spec: serviceSpec{
			Model: "cache",
			Axes:  []string{axis("DHitRatio", d[:]), axis("MemoryCycles", m[:])},
			Reps:  4, Seed: specSeed(len(jobs)), MaxStarts: 8000, Format: "csv",
			Throughput: []string{"Issue"}, Utilization: []string{"Bus_busy"},
		}})
	}
	for i := 0; i < svcInterp; i++ {
		lo := 3 + rng.Intn(2)
		jobs = append(jobs, serviceJob{Kind: "interp", Spec: serviceSpec{
			Net:  interpNet,
			Axes: []string{fmt.Sprintf("max_type=%d,%d", lo, lo+2)},
			Reps: 4, Seed: specSeed(len(jobs)), MaxStarts: 6000, Format: "csv",
			Throughput: []string{"Issue"}, Utilization: []string{"Bus_busy"},
		}})
	}
	for i := 0; i < svcReach; i++ {
		jobs = append(jobs, serviceJob{Kind: "reach", Spec: serviceSpec{
			Net: mutexNet, Engine: "reach", Seed: specSeed(len(jobs)), Format: "csv",
			Bound: pick(rng, mutexPlaces, 2), Ctl: pick(rng, mutexCTL, 2),
		}})
	}
	for i := 0; i < svcAnalytic; i++ {
		jobs = append(jobs, serviceJob{Kind: "analytic", Spec: serviceSpec{
			Net: mutexNet, Engine: "analytic", Seed: specSeed(len(jobs)), Format: "csv",
			Throughput: pick(rng, mutexTrans, 2), Utilization: pick(rng, mutexPlaces, 2),
		}})
	}
	rng.Shuffle(len(jobs), func(i, j int) { jobs[i], jobs[j] = jobs[j], jobs[i] })
	return jobs
}

// genService returns round r's submissions: the cold jobs, a join right
// behind the first cold cache sweep (so the two closed-loop clients
// submit the same spec at nearly the same moment), and hits on specs of
// earlier rounds (round 0 resubmits the golden spec of the warm-up).
func genService(seed int64, round int, interpNet, mutexNet string) []serviceJob {
	jobs := serviceCold(seed, round, interpNet, mutexNet)
	for i, j := range jobs {
		if j.Kind == "sim" {
			dup := j
			dup.Kind = "join"
			jobs = append(jobs[:i+1], append([]serviceJob{dup}, jobs[i+1:]...)...)
			break
		}
	}
	rng := rand.New(rand.NewSource(seed*1_000_003 + int64(round)*2 + 1))
	for i := 0; i < svcHits; i++ {
		spec := goldenSpec
		if round > 0 {
			prev := serviceCold(seed, rng.Intn(round), interpNet, mutexNet)
			spec = prev[rng.Intn(len(prev))].Spec
		}
		at := rng.Intn(len(jobs) + 1)
		jobs = append(jobs[:at], append([]serviceJob{{Kind: "hit", Spec: spec}}, jobs[at:]...)...)
	}
	return jobs
}

func axis(name string, vals []float64) string {
	s := make([]string, len(vals))
	for i, v := range vals {
		s[i] = fmt.Sprint(v)
	}
	return name + "=" + strings.Join(s, ",")
}

// pick draws k distinct elements of xs in their original order.
func pick(rng *rand.Rand, xs []string, k int) []string {
	idx := rng.Perm(len(xs))[:k]
	var out []string
	for i, x := range xs {
		for _, j := range idx {
			if i == j {
				out = append(out, x)
			}
		}
	}
	return out
}
