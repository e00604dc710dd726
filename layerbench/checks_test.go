package main

import (
	"context"
	"os"
	"reflect"
	"testing"

	"repro/internal/modelgen"
	"repro/internal/reach"
)

// The tests run from the repository root, where the benchmark reads
// testdata/.
func TestMain(m *testing.M) {
	if err := os.Chdir(".."); err != nil {
		panic(err)
	}
	if err := loadMutex(); err != nil {
		panic(err)
	}
	os.Exit(m.Run())
}

// Every batch workload's checker passes its warm-up job and rejects each
// perturbation of that job's output.
func TestCheckersRejectPerturbedOutputs(t *testing.T) {
	cfg := config{seed: 1, procs: 2}
	for _, name := range []string{"design_sweep", "state_space", "exact_analysis"} {
		t.Run(name, func(t *testing.T) {
			cfg.workload, cfg.work = name, t.TempDir()
			w, err := newWorkload(cfg, cfg.work)
			if err != nil {
				t.Fatal(err)
			}
			if err := w.setup(context.Background(), tctx{}); err != nil {
				t.Fatal(err)
			}
			errs := w.selfTest()
			if len(errs) == 0 {
				t.Fatal("no self-tests")
			}
			for _, err := range errs {
				if err != nil {
					t.Error(err)
				}
			}
		})
	}
}

func TestServiceCheckers(t *testing.T) {
	golden, err := os.ReadFile("testdata/golden/pnut-sweep.csv")
	if err != nil {
		t.Fatal(err)
	}
	if err := checkServiceCSV(goldenSpec, golden); err != nil {
		t.Errorf("golden CSV rejected: %v", err)
	}
	if err := checkSameBody(golden, golden); err != nil {
		t.Error(err)
	}
	bad := append([]byte(nil), golden...)
	bad[len(bad)-2] ^= 1
	if checkSameBody(golden, bad) == nil {
		t.Error("a hit body differing from its miss passed")
	}
}

func TestForkJoinStateFormula(t *testing.T) {
	for _, s := range []forkJoinShape{{2, 1}, {3, 2}, {4, 3}, {2, 9}} {
		g, err := reach.Build(context.Background(), modelgen.ForkJoin(s.Width, s.Depth, 7), reach.Options{})
		if err != nil {
			t.Fatal(err)
		}
		if got, want := g.NumNodes(), forkJoinStates(s); got != want {
			t.Errorf("ForkJoin(%d,%d): %d states, formula says %d", s.Width, s.Depth, got, want)
		}
	}
}

func TestPinnedStateCounts(t *testing.T) {
	ctx := context.Background()
	for _, d := range pinned {
		net, err := d.build()
		if err != nil {
			t.Fatal(err)
		}
		tg, err := reach.BuildTimed(ctx, net, reach.Options{})
		if err != nil {
			t.Fatal(err)
		}
		g, err := reach.Build(ctx, net, reach.Options{})
		if err != nil {
			t.Fatal(err)
		}
		if len(tg.Nodes) != d.TimedStates || g.NumNodes() != d.UntimedStates {
			t.Errorf("%s: %d timed and %d untimed states, pinned %d and %d",
				d.Name, len(tg.Nodes), g.NumNodes(), d.TimedStates, d.UntimedStates)
		}
	}
}

func TestGeneratorsFollowTheSeed(t *testing.T) {
	a, _ := genDesignSweep(3)
	b, _ := genDesignSweep(3)
	c, _ := genDesignSweep(4)
	if !reflect.DeepEqual(a, b) || reflect.DeepEqual(a, c) {
		t.Error("design_sweep jobs are not a function of the seed")
	}
	s1 := genService(3, 2, "net x", mutexSource)
	s2 := genService(3, 2, "net x", mutexSource)
	s3 := genService(4, 2, "net x", mutexSource)
	if !reflect.DeepEqual(s1, s2) || reflect.DeepEqual(s1, s3) {
		t.Error("service jobs are not a function of the seed")
	}
	seen := map[int64]bool{}
	for r := 0; r < 3; r++ {
		for _, j := range serviceCold(3, r, "net x", mutexSource) {
			if seen[j.Spec.Seed] {
				t.Fatalf("cold spec seed %d repeats, so a cold job would hit the cache", j.Spec.Seed)
			}
			seen[j.Spec.Seed] = true
		}
	}
}
