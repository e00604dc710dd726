package main

import (
	"fmt"
	"os"

	"repro/internal/petri"
	"repro/internal/pipeline"
	"repro/internal/ptl"
)

// designPoint is one processor (or mutex) net whose state-space sizes
// and steady-state figures are pinned below. Sizes are exact. The
// analytic figures were recorded from analytic.Evaluate and are checked
// within relTol, not bit for bit: a solver that converges further moves
// them in the fifth significant digit.
type designPoint struct {
	Name string
	// Model is "processor", "cache" (the Section 3 cache extension),
	// "decoder" (Figure 2 subnet), "execution" (Figure 3 subnet) or
	// "mutex" (testdata/mutex.pn).
	Model string
	Mem   int       // MemoryCycles
	Buf   int       // BufferWords
	Exec  []float64 // execution cycles, equally likely; nil = the Section 2 mix
	// ZeroOperand makes every instruction a register-register one
	// (TypeFreqs 1-0-0), which shrinks the timed state space.
	ZeroOperand bool

	TimedStates   int // reach.BuildTimed node count
	UntimedStates int // reach.Build node count; 0 = not pinned
	// BusBusy is utilization(Bus_busy) and Issue is throughput(Issue);
	// for the mutex net they are utilization(crit_a) = 4/9 and
	// throughput(enter_a) = 1/9, checked against the closed form.
	BusBusy, Issue float64
}

const (
	relTol   = 1e-3 // processor points vs the pinned figures
	mutexTol = 1e-9 // mutex vs its closed form
)

// pinned lists every design point a workload may draw.
var pinned = []designPoint{
	{Name: "mutex", Model: "mutex", TimedStates: 16, UntimedStates: 8, BusBusy: 4.0 / 9, Issue: 1.0 / 9},
	{Name: "proc_mc1_bw2", Model: "processor", Mem: 1, Buf: 2, TimedStates: 418, UntimedStates: 207, BusBusy: 0.194606941, Issue: 0.1769095342},
	{Name: "proc_mc1_bw4", Model: "processor", Mem: 1, Buf: 4, TimedStates: 399, UntimedStates: 393, BusBusy: 0.1975218287, Issue: 0.1795509553},
	{Name: "proc_mc3_bw2", Model: "processor", Mem: 3, Buf: 2, TimedStates: 499, UntimedStates: 207, BusBusy: 0.456269557, Issue: 0.1382593379},
	{Name: "cache_mc1_bw2", Model: "cache", Mem: 1, Buf: 2, TimedStates: 840, UntimedStates: 1044, BusBusy: 0.02489134447, Issue: 0.1777922332},
	{Name: "decoder_mc1", Model: "decoder", Mem: 1, Buf: 2, TimedStates: 28, UntimedStates: 36, BusBusy: 0.1904707369, Issue: 0.4761853961},
	{Name: "decoder_mc3", Model: "decoder", Mem: 3, Buf: 2, TimedStates: 30, UntimedStates: 36, BusBusy: 0.4285619642, Issue: 0.3571416832},
	{Name: "decoder_mc5", Model: "decoder", Mem: 5, Buf: 2, TimedStates: 30, UntimedStates: 36, BusBusy: 0.5555458486, Issue: 0.2777783307},
	{Name: "decoder_mc8", Model: "decoder", Mem: 8, Buf: 2, TimedStates: 30, UntimedStates: 36, BusBusy: 0.666657847, Issue: 0.2083347102},
	{Name: "execution_mc1", Model: "execution", Mem: 1, Buf: 2, TimedStates: 24, UntimedStates: 10, BusBusy: 0.04166608072, Issue: 0.2083371745},
	{Name: "execution_mc3", Model: "execution", Mem: 3, Buf: 2, TimedStates: 24, UntimedStates: 10, BusBusy: 0.1153831176, Issue: 0.192311446},
	{Name: "execution_mc5", Model: "execution", Mem: 5, Buf: 2, TimedStates: 24, UntimedStates: 10, BusBusy: 0.1785692761, Issue: 0.1785750798},
	{Name: "execution_mc8", Model: "execution", Mem: 8, Buf: 2, TimedStates: 24, UntimedStates: 10, BusBusy: 0.2580617065, Issue: 0.1612938086},
	{Name: "proc0_x1_mc1", Model: "processor", Mem: 1, Buf: 2, Exec: []float64{1}, ZeroOperand: true, TimedStates: 55, UntimedStates: 207, BusBusy: 0.434783296, Issue: 0.6211021541},
	{Name: "proc0_x1_mc2", Model: "processor", Mem: 2, Buf: 2, Exec: []float64{1}, ZeroOperand: true, TimedStates: 56, UntimedStates: 207, BusBusy: 0.6060608842, Issue: 0.4328891728},
	{Name: "proc0_x1_mc3", Model: "processor", Mem: 3, Buf: 2, Exec: []float64{1}, ZeroOperand: true, TimedStates: 56, UntimedStates: 207, BusBusy: 0.6976743931, Issue: 0.3322175347},
	{Name: "proc0_x2_mc1", Model: "processor", Mem: 1, Buf: 2, Exec: []float64{2}, ZeroOperand: true, TimedStates: 35, UntimedStates: 207, BusBusy: 0.3181909194, Issue: 0.4545385538},
	{Name: "proc0_x2_mc2", Model: "processor", Mem: 2, Buf: 2, Exec: []float64{2}, ZeroOperand: true, TimedStates: 41, UntimedStates: 207, BusBusy: 0.5600049471, Issue: 0.3999890482},
	{Name: "proc0_x2_mc3", Model: "processor", Mem: 3, Buf: 2, Exec: []float64{2}, ZeroOperand: true, TimedStates: 45, UntimedStates: 207, BusBusy: 0.6730802865, Issue: 0.32050338},
	{Name: "proc0_x12_mc1", Model: "processor", Mem: 1, Buf: 2, Exec: []float64{1, 2}, ZeroOperand: true, TimedStates: 76, UntimedStates: 207, BusBusy: 0.3856796246, Issue: 0.550951804},
	{Name: "proc0_x12_mc2", Model: "processor", Mem: 2, Buf: 2, Exec: []float64{1, 2}, ZeroOperand: true, TimedStates: 80, UntimedStates: 207, BusBusy: 0.5900971358, Issue: 0.4214846459},
	{Name: "proc0_x12_mc3", Model: "processor", Mem: 3, Buf: 2, Exec: []float64{1, 2}, ZeroOperand: true, TimedStates: 80, UntimedStates: 207, BusBusy: 0.687962215, Issue: 0.3275911032},
	{Name: "cache0_x2_mc1", Model: "cache", Mem: 1, Buf: 2, Exec: []float64{2}, ZeroOperand: true, TimedStates: 61, UntimedStates: 1044, BusBusy: 0.03636409488, Issue: 0.4545380682},
	{Name: "cache0_x2_mc2", Model: "cache", Mem: 2, Buf: 2, Exec: []float64{2}, ZeroOperand: true, TimedStates: 74, UntimedStates: 1044, BusBusy: 0.07170102346, Issue: 0.4481212324},
	{Name: "cache0_x2_mc3", Model: "cache", Mem: 3, Buf: 2, Exec: []float64{2}, ZeroOperand: true, TimedStates: 91, UntimedStates: 1044, BusBusy: 0.1045753899, Issue: 0.43572209},
	{Name: "proc_x1_mc1", Model: "processor", Mem: 1, Buf: 2, Exec: []float64{1}, TimedStates: 125, UntimedStates: 207, BusBusy: 0.4320667764, Issue: 0.3927772275},
	{Name: "proc_x1_mc2", Model: "processor", Mem: 2, Buf: 2, Exec: []float64{1}, TimedStates: 159, UntimedStates: 207, BusBusy: 0.6481124137, Issue: 0.2945888867},
	{Name: "cache0_x1_mc1", Model: "cache", Mem: 1, Buf: 2, Exec: []float64{1}, ZeroOperand: true, TimedStates: 136, UntimedStates: 1044, BusBusy: 0.05258566927, Issue: 0.6573112025},
}

func pointByName(name string) designPoint {
	for _, p := range pinned {
		if p.Name == name {
			return p
		}
	}
	panic("layerbench: no pinned design point " + name)
}

// mutexSource is testdata/mutex.pn, read once at start.
var mutexSource string

func loadMutex() error {
	b, err := os.ReadFile("testdata/mutex.pn")
	if err != nil {
		return err
	}
	mutexSource = string(b)
	return nil
}

// build constructs the point's net through the pipeline builders (or the
// .pn parser for the mutex).
func (d designPoint) build() (*petri.Net, error) {
	if d.Model == "mutex" {
		return ptl.Parse(mutexSource)
	}
	p := pipeline.DefaultParams()
	p.MemoryCycles = petri.Time(d.Mem)
	p.BufferWords = d.Buf
	if d.Exec != nil {
		p.ExecCycles = make([]petri.Time, len(d.Exec))
		p.ExecFreqs = make([]float64, len(d.Exec))
		for i, c := range d.Exec {
			p.ExecCycles[i] = petri.Time(c)
			p.ExecFreqs[i] = 1
		}
	}
	if d.ZeroOperand {
		p.TypeFreqs = [3]float64{1, 0, 0}
	}
	switch d.Model {
	case "processor":
		return pipeline.Processor(p)
	case "cache":
		return pipeline.CacheProcessor(p, pipeline.DefaultCacheParams())
	case "decoder":
		return pipeline.Decoder(p)
	case "execution":
		return pipeline.Execution(p)
	}
	return nil, fmt.Errorf("unknown model %q", d.Model)
}

// metricNames returns the utilization place and throughput transition
// the point's figures are read from.
func (d designPoint) metricNames() (place, trans string) {
	if d.Model == "mutex" {
		return "crit_a", "enter_a"
	}
	return "Bus_busy", "Issue"
}
