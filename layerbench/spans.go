package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"sync"
	"time"
)

// span is one timed call into a layer of the program under test. Spans
// are recorded by the benchmark around its own calls; nothing inside the
// program is instrumented.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"` // 0 = root
	Name   string `json:"name"`
	Job    string `json:"job"`
	// Round is the measured round the span belongs to; setup spans carry
	// -1 - k for the k-th setup.
	Round int   `json:"round"`
	Start int64 `json:"start_ns"` // since the tracer was created
	End   int64 `json:"end_ns"`
	// N is the work the call did, in the span's own unit (events, cells,
	// states, bytes, records); 0 when the layer has no count.
	N int64 `json:"n,omitempty"`
}

func (s span) ms() float64 { return float64(s.End-s.Start) / 1e6 }

// tracer keeps spans in memory. A nil *tracer or one with on == false
// records nothing, so the untraced run pays one branch per call site.
type tracer struct {
	mu    sync.Mutex
	t0    time.Time
	on    bool
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// tctx names where a span belongs: its job, round and parent span.
type tctx struct {
	tr     *tracer
	job    string
	round  int
	parent int
}

// openSpan is a started span; end or endAs closes it.
type openSpan struct {
	tr *tracer
	id int // 0 when nothing was recorded
}

// start opens a span and returns a context whose parent is the new span.
func (c tctx) start(name string) (tctx, openSpan) {
	tr := c.tr
	if tr == nil || !tr.on {
		return c, openSpan{}
	}
	t := time.Since(tr.t0).Nanoseconds()
	tr.mu.Lock()
	id := len(tr.spans) + 1
	tr.spans = append(tr.spans, span{ID: id, Parent: c.parent, Name: name, Job: c.job, Round: c.round, Start: t})
	tr.mu.Unlock()
	child := c
	child.parent = id
	return child, openSpan{tr: tr, id: id}
}

// end closes the span, storing the work count n.
func (o openSpan) end(n int64) { o.endAs("", n) }

// endAs closes the span and, if name is not empty, renames it: a span
// whose outcome is known only at its end (a cache hit or miss) carries
// the outcome in its name.
func (o openSpan) endAs(name string, n int64) {
	if o.id == 0 {
		return
	}
	end := time.Since(o.tr.t0).Nanoseconds()
	o.tr.mu.Lock()
	s := &o.tr.spans[o.id-1]
	s.End, s.N = end, n
	if name != "" {
		s.Name = name
	}
	o.tr.mu.Unlock()
}

// record runs fn inside a span and stores the count fn returns.
func (c tctx) record(name string, fn func(tctx) (int64, error)) error {
	child, sp := c.start(name)
	n, err := fn(child)
	sp.end(n)
	return err
}

// snapshot returns a copy of the recorded spans.
func (tr *tracer) snapshot() []span {
	tr.mu.Lock()
	defer tr.mu.Unlock()
	return append([]span(nil), tr.spans...)
}

// writeJSONL writes every span as one JSON line.
func (tr *tracer) writeJSONL(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range tr.snapshot() {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// layerTotals sums, per measured round, the duration and count of every
// span with the given name.
type layerTotals struct {
	ms map[int]float64
	n  map[int]int64
}

func totalsByRound(spans []span, name string) layerTotals {
	t := layerTotals{ms: map[int]float64{}, n: map[int]int64{}}
	for _, s := range spans {
		if s.Name == name {
			t.ms[s.Round] += s.ms()
			t.n[s.Round] += s.N
		}
	}
	return t
}

// msOf returns the summed span time of each given round, in order.
func (t layerTotals) msOf(rounds []int) []float64 {
	out := make([]float64, len(rounds))
	for i, r := range rounds {
		out[i] = t.ms[r]
	}
	return out
}

// exactCount returns the per-round count, which must be identical in
// every listed round; ok is false when it is not.
func (t layerTotals) exactCount(rounds []int) (n int64, ok bool) {
	for i, r := range rounds {
		if i == 0 {
			n = t.n[r]
		} else if t.n[r] != n {
			return n, false
		}
	}
	return n, true
}

// rate is the count per second over all listed rounds.
func (t layerTotals) rate(rounds []int) float64 {
	var n int64
	var ms float64
	for _, r := range rounds {
		n += t.n[r]
		ms += t.ms[r]
	}
	if ms == 0 {
		return 0
	}
	return float64(n) / (ms / 1e3)
}

// durations returns every matching span's duration in ms.
func durations(spans []span, keep func(span) bool) []float64 {
	var out []float64
	for _, s := range spans {
		if keep(s) {
			out = append(out, s.ms())
		}
	}
	return out
}

// median and percentile use linear interpolation between order
// statistics (the "inclusive" method of Python's statistics.quantiles).
func median(xs []float64) float64 { return percentile(xs, 50) }

func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := p / 100 * float64(len(s)-1)
	lo := int(pos)
	if lo >= len(s)-1 {
		return s[len(s)-1]
	}
	frac := pos - float64(lo)
	return s[lo] + frac*(s[lo+1]-s[lo])
}

// metric is one named figure of the result line.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type metrics map[string]metric

func (m metrics) set(name string, v float64, unit string) { m[name] = metric{Value: v, Unit: unit} }

func (m metrics) String() string {
	names := make([]string, 0, len(m))
	for k := range m {
		names = append(names, k)
	}
	sort.Strings(names)
	s := ""
	for _, k := range names {
		s += fmt.Sprintf("  %-28s %14.6g %s\n", k, m[k].Value, m[k].Unit)
	}
	return s
}
