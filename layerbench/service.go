package main

import (
	"bytes"
	"context"
	"encoding/csv"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// service drives pnut-server, started with default flags, over loopback
// HTTP from two closed-loop clients: each submits a job, waits for its
// result, checks it, and submits the next.
type service struct {
	cfg    config
	tmp    string
	interp string // testdata/pipeline_interpreted.pn
	golden []byte // testdata/golden/pnut-sweep.csv

	srv     *exec.Cmd
	base    string
	client  *http.Client
	baseRSS float64 // server VmRSS after setup

	mu     sync.Mutex
	list   []serviceJob
	bodies map[string][]byte // spec JSON -> first result body seen
	warm   []byte            // the warm-up's golden body
}

func (w *service) clients() int { return w.cfg.procs }

// minJobs gives at least 200 cold misses per phase, so the miss p95 has
// at least 10 samples beyond it.
func (w *service) minJobs() int {
	perRound := svcSim + svcInterp + svcReach + svcAnalytic
	total := perRound + 1 + svcHits
	return (200 + perRound - 1) / perRound * total
}

func (w *service) setup(ctx context.Context, c tctx) error {
	if w.interp == "" {
		b, err := os.ReadFile("testdata/pipeline_interpreted.pn")
		if err != nil {
			return err
		}
		w.interp = string(b)
		if w.golden, err = os.ReadFile("testdata/golden/pnut-sweep.csv"); err != nil {
			return err
		}
	}
	if err := w.close(); err != nil {
		return err
	}
	if err := w.start(c); err != nil {
		return err
	}
	w.bodies = map[string][]byte{}
	spec, err := json.Marshal(goldenSpec)
	if err != nil {
		return err
	}
	w.bodies[string(spec)] = w.golden
	// The warm-up job is the golden spec, cold on the fresh server.
	body, _, err := w.submit(ctx, c, spec)
	if err != nil {
		return fmt.Errorf("warm-up job: %w", err)
	}
	w.warm = body
	if w.baseRSS, err = vmKB(strconv.Itoa(w.srv.Process.Pid), "VmRSS"); err != nil {
		return err
	}
	if err := checkSameBody(w.golden, body); err != nil {
		return failedCheck{fmt.Errorf("warm-up job: golden spec: %w", err)}
	}
	return nil
}

// start launches the server on a free loopback port and waits until
// /healthz answers 200.
func (w *service) start(c tctx) error {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	addr := l.Addr().String()
	l.Close()
	logf, err := os.Create(filepath.Join(w.tmp, "server.log"))
	if err != nil {
		return err
	}
	defer logf.Close()
	_, sp := c.start("server.start")
	w.srv = exec.Command(w.cfg.server, "-addr", addr)
	w.srv.Env = append(os.Environ(), fmt.Sprintf("GOMAXPROCS=%d", w.cfg.procs))
	w.srv.Stdout, w.srv.Stderr = logf, logf
	// The server must not outlive the benchmark, even when it is killed.
	w.srv.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	if err := w.srv.Start(); err != nil {
		w.srv = nil
		return err
	}
	w.base = "http://" + addr
	w.client = &http.Client{
		Transport: &http.Transport{MaxIdleConnsPerHost: w.cfg.procs, MaxConnsPerHost: w.cfg.procs},
		Timeout:   2 * time.Minute,
	}
	deadline := time.Now().Add(30 * time.Second)
	for {
		resp, err := w.client.Get(w.base + "/healthz")
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				sp.end(0)
				return nil
			}
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("pnut-server not healthy after 30s: %v", err)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// close stops the server with SIGTERM (its graceful drain) and waits for
// it to exit.
func (w *service) close() error {
	if w.srv == nil {
		return nil
	}
	srv := w.srv
	w.srv = nil
	w.client.CloseIdleConnections()
	if err := srv.Process.Signal(syscall.SIGTERM); err != nil {
		return err
	}
	done := make(chan error, 1)
	go func() { done <- srv.Wait() }()
	select {
	case err := <-done:
		return err
	case <-time.After(30 * time.Second):
		srv.Process.Kill()
		<-done
		return errors.New("pnut-server did not drain within 30s")
	}
}

func (w *service) peakRSSMB() (float64, error) {
	return vmKB(strconv.Itoa(w.srv.Process.Pid), "VmHWM")
}

func (w *service) jobs(r int) int {
	w.mu.Lock()
	defer w.mu.Unlock()
	w.list = genService(w.cfg.seed, r, w.interp, mutexSource)
	return len(w.list)
}

func (w *service) run(ctx context.Context, c tctx, r, i int) error {
	w.mu.Lock()
	j := w.list[i]
	w.mu.Unlock()
	spec, err := json.Marshal(j.Spec)
	if err != nil {
		return err
	}
	body, status, err := w.submit(ctx, c, spec)
	if err != nil {
		return err
	}
	key := string(spec)
	w.mu.Lock()
	first, seen := w.bodies[key]
	if !seen {
		w.bodies[key] = body
	}
	w.mu.Unlock()
	if seen {
		// A hit or join must return the bytes its miss returned.
		if err := checkSameBody(first, body); err != nil {
			return fmt.Errorf("%s %s: %w", j.Kind, status, err)
		}
		return nil
	}
	return checkServiceCSV(j.Spec, body)
}

// submit POSTs the spec, then GETs the result with ?wait=1, and returns
// the result body and the X-Pnut-Cache status of the submission. The
// whole exchange is one "server.job.<status>" span, so the trace splits
// latency by cache outcome.
func (w *service) submit(ctx context.Context, c tctx, spec []byte) ([]byte, string, error) {
	jc, sp := c.start("server.job")
	var id, status string
	err := jc.record("server.admit", func(tctx) (int64, error) {
		req, err := http.NewRequestWithContext(ctx, http.MethodPost, w.base+"/v1/jobs", bytes.NewReader(spec))
		if err != nil {
			return 0, err
		}
		resp, err := w.client.Do(req)
		if err != nil {
			return 0, err
		}
		defer resp.Body.Close()
		io.Copy(io.Discard, resp.Body)
		if resp.StatusCode == http.StatusTooManyRequests || resp.StatusCode == http.StatusServiceUnavailable {
			status = "refused"
			return 0, fmt.Errorf("submission refused: %s", resp.Status)
		}
		if resp.StatusCode != http.StatusAccepted && resp.StatusCode != http.StatusOK {
			return 0, fmt.Errorf("submission: %s", resp.Status)
		}
		id, status = resp.Header.Get("X-Pnut-Job"), resp.Header.Get("X-Pnut-Cache")
		return 0, nil
	})
	if err != nil {
		sp.endAs("server.job."+outcome(status), 0)
		return nil, status, err
	}
	var body []byte
	err = jc.record("server.wait", func(tctx) (int64, error) {
		req, err := http.NewRequestWithContext(ctx, http.MethodGet, w.base+"/v1/jobs/"+id+"/result?wait=1", nil)
		if err != nil {
			return 0, err
		}
		resp, err := w.client.Do(req)
		if err != nil {
			return 0, err
		}
		defer resp.Body.Close()
		body, err = io.ReadAll(resp.Body)
		if err != nil {
			return 0, err
		}
		if resp.StatusCode != http.StatusOK {
			return 0, fmt.Errorf("result: %s: %s", resp.Status, bytes.TrimSpace(body))
		}
		return int64(len(body)), nil
	})
	sp.endAs("server.job."+outcome(status), int64(len(body)))
	return body, status, err
}

// outcome names a submission's cache status for its span.
func outcome(status string) string {
	if status == "" {
		return "error"
	}
	return status
}

// checkSameBody is the check that a resubmitted spec (a cache hit or a
// join) got exactly the bytes of its first submission.
func checkSameBody(want, got []byte) error {
	if !bytes.Equal(want, got) {
		return fmt.Errorf("result body (%d bytes) differs from the first one (%d bytes)", len(got), len(want))
	}
	return nil
}

// checkServiceCSV checks a cold job's CSV: a header, one row per grid
// point, every field a number.
func checkServiceCSV(spec serviceSpec, body []byte) error {
	rows, err := csv.NewReader(bytes.NewReader(body)).ReadAll()
	if err != nil {
		return fmt.Errorf("result CSV: %w", err)
	}
	points := 1
	for _, a := range spec.Axes {
		points *= strings.Count(a, ",") + 1
	}
	if len(rows) != points+1 {
		return fmt.Errorf("result CSV has %d rows, want %d", len(rows), points+1)
	}
	for i, row := range rows[1:] {
		if len(row) != len(rows[0]) {
			return fmt.Errorf("result CSV row %d has %d fields, header %d", i+1, len(row), len(rows[0]))
		}
		for _, f := range row {
			if _, err := strconv.ParseFloat(f, 64); err != nil {
				return fmt.Errorf("result CSV row %d: %q is not a number", i+1, f)
			}
		}
	}
	return nil
}

func (w *service) selfTest() []error {
	bad := append([]byte(nil), w.warm...)
	bad[len(bad)/2] ^= 1
	body := bytes.TrimSuffix(w.warm, []byte("\n"))
	short := body[:bytes.LastIndexByte(body, '\n')+1]
	return []error{
		expectRejected("hit body differing from its miss", checkSameBody(w.golden, bad)),
		expectRejected("CSV missing a grid row", checkServiceCSV(goldenSpec, short)),
	}
}

func (w *service) layers(m metrics, spans []span, rounds []int) bool {
	in := map[int]bool{}
	for _, r := range rounds {
		in[r] = true
	}
	named := func(name string) []float64 {
		return durations(spans, func(s span) bool { return s.Name == name && in[s.Round] })
	}
	m.set("server.admit_p50_ms", median(named("server.admit")), "ms")
	m.set("server.wait_p50_ms", median(named("server.wait")), "ms")
	miss, hit, join := named("server.job.miss"), named("server.job.hit"), named("server.job.join")
	refused := named("server.job.refused")
	m.set("server.miss_p50_ms", median(miss), "ms")
	m.set("server.miss_p95_ms", percentile(miss, 95), "ms")
	m.set("server.hit_p50_ms", median(hit), "ms")
	subs := len(miss) + len(hit) + len(join) + len(refused)
	m.set("cache.hit_ratio", float64(len(hit)+len(join))/float64(max(subs, 1)), "ratio")
	m.set("server.refused", float64(len(refused)), "count")

	if n, err := w.retainedJobs(); err == nil {
		m.set("server.jobs_retained", float64(n), "count")
	} else {
		fmt.Fprintln(os.Stderr, "layerbench:", err)
	}
	if rss, err := vmKB(strconv.Itoa(w.srv.Process.Pid), "VmRSS"); err == nil {
		m.set("server.rss_growth_mb", rss-w.baseRSS, "MB")
	} else {
		fmt.Fprintln(os.Stderr, "layerbench:", err)
	}
	// Exact counts do not apply: the hit/join split depends on timing.
	return true
}

// retainedJobs is the length of GET /v1/jobs.
func (w *service) retainedJobs() (int, error) {
	resp, err := w.client.Get(w.base + "/v1/jobs")
	if err != nil {
		return 0, err
	}
	defer resp.Body.Close()
	var jobs []json.RawMessage
	if err := json.NewDecoder(resp.Body).Decode(&jobs); err != nil {
		return 0, fmt.Errorf("GET /v1/jobs: %w", err)
	}
	return len(jobs), nil
}

// vmKB reads a Vm* field of /proc/<pid>/status and returns it in MB.
func vmKB(pid, field string) (float64, error) {
	b, err := os.ReadFile("/proc/" + pid + "/status")
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if v, ok := strings.CutPrefix(line, field+":"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(v), " kB"), 64)
			if err != nil {
				return 0, fmt.Errorf("%s of %s: %w", field, pid, err)
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("no %s in /proc/%s/status", field, pid)
}
