package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"os"
	"os/exec"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"repro/internal/core"
	"repro/internal/dse"
	"repro/internal/eval"
	"repro/internal/hw"
	"repro/internal/search"
	"repro/internal/serve"
	"repro/internal/workload"
)

// The serve workload's traffic. The reference rate was chosen from the
// saturation loop of this benchmark on a 2-CPU machine, where claired
// completes about 2000 requests per second of this mix.
const (
	// refRate is the open loop's rate in requests per second, well below
	// capacity; the latency metrics and the failure count are taken at it.
	refRate = 200.0
	// loadConns is the number of keep-alive connections the open loop uses.
	loadConns = 2
	// satClients is the number of sync clients of the saturation loop:
	// enough to keep claired's two job workers and its queue busy.
	satClients = 16
	// In traced runs the saturation loop runs for satWarmup, left uncounted
	// while the fresh server fills its caches, then for satBuckets intervals
	// of satBucket; the open loop gets the rest of the window (all of it in
	// untraced runs). The loop is kept short because claired's memory grows
	// with every request it serves.
	satWarmup  = time.Second
	satBucket  = 500 * time.Millisecond
	satBuckets = 10
	// backlogSlack is how many more jobs may be outstanding, on average, in
	// the open loop's last third than in its first before the reference
	// rate counts as above capacity.
	backlogSlack = 4.0
	// bootReps is how many times claired is booted at set-up; setup_s is
	// the median boot.
	bootReps = 31
	// bootPoll is how often a booting claired's /healthz is tried.
	bootPoll = 100 * time.Microsecond
	// pollEvery is how often the open loop samples /metrics.
	pollEvery = 100 * time.Millisecond
)

// requestShape is an explore request body with a %s slot per network.
type requestShape struct {
	body string
	// avoid is a network the shape never draws, because some of its
	// combinations have no feasible configuration and the job would fail.
	avoid string
}

// requestShapes are the explore request bodies cmd/clairebench sends to
// claired, one of each per cycle there: every shape is equally likely here.
// The networks in the slots are drawn from the seed; the rest is sent
// unchanged, except that the fine-space shape runs on the smaller mix space
// so per-request compute stays small. Mobilenetv2 paired with a transformer
// has no configuration within 30% of both best latencies, so the slack-0.3
// pair leaves it out.
var requestShapes = []requestShape{
	{body: `{"models":[%s],"space":"mix"}`},
	{body: `{"models":[%s]}`},
	{body: `{"models":[%s,%s]}`},
	{body: `{"models":[%s],"fidelity":"staged"}`},
	{body: `{"models":[%s],"search":"anneal","budget":32,"seed":7}`},
	{body: `{"models":[%s],"constraints":{"latency_slack":0.2}}`},
	{body: `{"models":[%s,%s],"constraints":{"latency_slack":0.3}}`, avoid: "Mobilenetv2"},
}

// drawRequest draws one request body: a shape, then distinct networks for
// its slots.
func drawRequest(r *rand.Rand, names []string) string {
	shape := requestShapes[r.Intn(len(requestShapes))]
	slots := strings.Count(shape.body, "%s")
	args := make([]any, 0, slots)
	for _, i := range r.Perm(len(names)) {
		if len(args) == slots {
			break
		}
		if names[i] != shape.avoid {
			args = append(args, strconv.Quote(names[i]))
		}
	}
	return fmt.Sprintf(shape.body, args...)
}

// request is one open-loop request and what became of it.
type request struct {
	body string
	due  time.Time
	// ready is when a sender took the request: from then on only its due
	// time held it back.
	ready     time.Time
	sent      time.Time
	acked     time.Time
	jobID     string
	coalesced bool
	status    int
	err       error
}

// jobStatus is the part of claired's job status the benchmark reads.
type jobStatus struct {
	State     string          `json:"state"`
	Error     string          `json:"error"`
	Result    json.RawMessage `json:"result"`
	ElapsedMS float64         `json:"elapsed_ms"`
}

// serverMetrics is the part of claired's /metrics the benchmark reads.
type serverMetrics struct {
	QueueDepth int   `json:"queue_depth"`
	InFlight   int   `json:"in_flight"`
	Rejected   int64 `json:"rejected"`
	Cache      struct {
		Entries int     `json:"entries"`
		HitRate float64 `json:"hit_rate"`
	} `json:"cache"`
}

// child is a claired process the benchmark started.
type child struct {
	cmd  *exec.Cmd
	base string
	// peakRSSMiB is set by the first stop.
	peakRSSMiB float64
	stopped    bool
}

// freePort asks the kernel for a free loopback port.
func freePort() (int, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, err
	}
	port := l.Addr().(*net.TCPAddr).Port
	return port, l.Close()
}

// startClaired boots claired on a free loopback port, retaining history
// terminal jobs, and waits until /healthz answers.
func startClaired(bin string, history int, ctl *http.Client) (*child, error) {
	port, err := freePort()
	if err != nil {
		return nil, err
	}
	addr := fmt.Sprintf("127.0.0.1:%d", port)
	cmd := exec.Command(bin, "-addr", addr, "-history", strconv.Itoa(history))
	cmd.Stderr = os.Stderr
	if err := cmd.Start(); err != nil {
		return nil, fmt.Errorf("starting claired: %w", err)
	}
	c := &child{cmd: cmd, base: "http://" + addr}
	deadline := time.Now().Add(10 * time.Second)
	for {
		resp, err := ctl.Get(c.base + "/healthz")
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return c, nil
			}
		}
		if time.Now().After(deadline) {
			c.stop()
			return nil, fmt.Errorf("claired did not answer /healthz within 10s")
		}
		sleepUntil(time.Now().Add(bootPoll))
	}
}

// stop asks claired to drain and exit, kills it if it does not within ten
// seconds, and returns its peak resident memory in MiB. Later calls only
// return the figure.
func (c *child) stop() float64 {
	if c.stopped {
		return c.peakRSSMiB
	}
	c.stopped = true
	c.cmd.Process.Signal(syscall.SIGTERM)
	done := make(chan struct{})
	go func() {
		c.cmd.Wait()
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		c.cmd.Process.Kill()
		<-done
	}
	if ru, ok := c.cmd.ProcessState.SysUsage().(*syscall.Rusage); ok {
		c.peakRSSMiB = float64(ru.Maxrss) / 1024 // Linux reports kilobytes
	}
	return c.peakRSSMiB
}

func getJSON(ctl *http.Client, url string, v any) error {
	resp, err := ctl.Get(url)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("GET %s: %s", url, resp.Status)
	}
	return json.NewDecoder(resp.Body).Decode(v)
}

// openLoop is the fixed-rate stretch of the run and what it observed.
type openLoop struct {
	reqs     []*request
	jobs     map[string]*jobStatus
	creators map[string]*request
	// outstanding samples queued plus running jobs every pollEvery.
	outstanding []float64
	depthMax    int
}

// latencyMS is one request's latency, from its due time until its job
// settled, less the generator's own oversleep. A job's settle time is placed
// on the generator's clock by the send time of the request that created it;
// a coalesced request settles with the job it joined. The oversleep is the
// time from when the generator could send the request (its due time, or
// later, when a connection came free) until it did: on a shared host the
// sender's thread wakes up to several milliseconds late, and that delay is
// the generator's, not the server's. The wait for a free connection stays
// in. ok is false when the request failed or was refused.
func (l *openLoop) latencyMS(r *request) (ms float64, ok bool) {
	js, creator := l.jobs[r.jobID], l.creators[r.jobID]
	if r.err != nil || r.status != http.StatusAccepted || js == nil || creator == nil || js.State != "done" {
		return 0, false
	}
	settle := creator.sent.Add(time.Duration(js.ElapsedMS * float64(time.Millisecond)))
	oversleep := r.sent.Sub(laterOf(r.due, r.ready))
	return float64(settle.Sub(r.due)-oversleep) / float64(time.Millisecond), true
}

func laterOf(a, b time.Time) time.Time {
	if a.After(b) {
		return a
	}
	return b
}

// latencies returns the latency of every request that succeeded and the
// number that failed.
func (l *openLoop) latencies() (ms []float64, failed int) {
	for _, r := range l.reqs {
		v, ok := l.latencyMS(r)
		if !ok {
			failed++
			continue
		}
		ms = append(ms, v)
	}
	return ms, failed
}

// tailMS is the latency at the highest percentile with at least ten samples
// beyond it (p99 from 1000 samples up).
func tailMS(ms []float64) float64 {
	p, ok := tailPercentile(len(ms))
	if !ok {
		return percentile(ms, 100)
	}
	return percentile(ms, p)
}

// generator drives claired: the open loop sends requests on a seeded Poisson
// schedule over loadConns keep-alive connections, whatever the server's
// state; the saturation loop keeps satClients sync requests outstanding; a
// separate control client reads /metrics and job status.
type generator struct {
	base      string
	load, ctl *http.Client
	names     []string
	seed      int64
}

// runOpen sends the open loop's schedule, samples the server while it runs,
// waits for the server to drain, then reads the status of every job.
func (g *generator) runOpen(rate float64, length time.Duration) (*openLoop, error) {
	r := rngFor(g.seed, 100)
	l := &openLoop{jobs: make(map[string]*jobStatus), creators: make(map[string]*request)}
	start := time.Now().Add(5 * time.Millisecond)
	for t := r.ExpFloat64() / rate; t < length.Seconds(); t += r.ExpFloat64() / rate {
		l.reqs = append(l.reqs, &request{body: drawRequest(r, g.names), due: start.Add(time.Duration(t * float64(time.Second)))})
	}

	stopPoll := make(chan struct{})
	var pollWG sync.WaitGroup
	pollWG.Add(1)
	go func() {
		defer pollWG.Done()
		tick := time.NewTicker(pollEvery)
		defer tick.Stop()
		for {
			select {
			case <-stopPoll:
				return
			case <-tick.C:
			}
			var m serverMetrics
			if err := getJSON(g.ctl, g.base+"/metrics", &m); err == nil {
				l.outstanding = append(l.outstanding, float64(m.QueueDepth+m.InFlight))
				l.depthMax = max(l.depthMax, m.QueueDepth)
			}
		}
	}()

	// Each sender takes the next request in schedule order, waits for its
	// due time and sends it, so no hand-off between goroutines delays it.
	var next atomic.Int64
	var sendWG sync.WaitGroup
	for i := 0; i < loadConns; i++ {
		sendWG.Add(1)
		go func() {
			defer sendWG.Done()
			for {
				n := int(next.Add(1)) - 1
				if n >= len(l.reqs) {
					return
				}
				req := l.reqs[n]
				req.ready = time.Now()
				sleepUntil(req.due)
				g.send(req)
			}
		}()
	}
	sendWG.Wait()
	close(stopPoll)
	pollWG.Wait()

	if err := g.drain(30 * time.Second); err != nil {
		return nil, err
	}
	for _, req := range l.reqs {
		if req.jobID == "" {
			continue
		}
		if !req.coalesced && l.creators[req.jobID] == nil {
			l.creators[req.jobID] = req
		}
		if l.jobs[req.jobID] != nil {
			continue
		}
		var js jobStatus
		if err := getJSON(g.ctl, g.base+"/v1/jobs/"+req.jobID, &js); err != nil {
			return nil, fmt.Errorf("reading job %s: %w", req.jobID, err)
		}
		l.jobs[req.jobID] = &js
	}
	return l, nil
}

// sleepUntil blocks until t in a nanosleep system call. The Go runtime
// wakes a sleeping goroutine of an otherwise idle process on a whole
// millisecond (its poller waits in milliseconds), which would add up to a
// millisecond of generator lateness to every open-loop request; the kernel
// wakes the sleeping thread within its timer slack.
func sleepUntil(t time.Time) {
	for d := time.Until(t); d > 0; d = time.Until(t) {
		ts := syscall.NsecToTimespec(int64(d))
		syscall.Nanosleep(&ts, nil)
	}
}

// send posts one async explore request and records the job it joined.
func (g *generator) send(req *request) {
	req.sent = time.Now()
	resp, err := g.load.Post(g.base+"/v1/explore", "application/json", strings.NewReader(req.body))
	if err != nil {
		req.err = err
		return
	}
	defer resp.Body.Close()
	req.acked = time.Now()
	req.status = resp.StatusCode
	if resp.StatusCode != http.StatusAccepted {
		io.Copy(io.Discard, resp.Body)
		return
	}
	var ack struct {
		JobID     string `json:"job_id"`
		Coalesced bool   `json:"coalesced"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&ack); err != nil {
		req.err = err
		return
	}
	req.jobID, req.coalesced = ack.JobID, ack.Coalesced
}

// drain waits until claired has no queued or running job.
func (g *generator) drain(limit time.Duration) error {
	deadline := time.Now().Add(limit)
	for {
		var m serverMetrics
		if err := getJSON(g.ctl, g.base+"/metrics", &m); err != nil {
			return fmt.Errorf("reading /metrics: %w", err)
		}
		if m.QueueDepth == 0 && m.InFlight == 0 {
			return nil
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("claired still busy %v after the open loop", limit)
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// saturation is what the closed saturation loop observed.
type saturation struct {
	completed, failed int
	// buckets counts completions per satBucket after the warm-up.
	buckets []float64
	// results holds the last served result of every body answered.
	results map[string]json.RawMessage
}

// ratePerS is the median completion rate over the buckets: the machine's
// short stalls move a few buckets, not the median.
func (s *saturation) ratePerS() float64 {
	return median(s.buckets) / satBucket.Seconds()
}

// saturate keeps satClients sync requests outstanding: each client sends
// its next request as soon as the previous one is answered, so claired's job
// workers never idle and the completion rate is its capacity for this mix.
// Completions are counted per satBucket once satWarmup has passed. Bodies
// come from one seeded stream, drawn in send order.
func (g *generator) saturate() *saturation {
	client := &http.Client{
		Timeout:   30 * time.Second,
		Transport: &http.Transport{MaxConnsPerHost: satClients, MaxIdleConnsPerHost: satClients},
	}
	defer client.CloseIdleConnections()
	r := rngFor(g.seed, 200)
	var mu sync.Mutex
	sat := &saturation{
		buckets: make([]float64, satBuckets),
		results: make(map[string]json.RawMessage),
	}
	next := func() string {
		mu.Lock()
		defer mu.Unlock()
		return drawRequest(r, g.names)
	}
	start := time.Now()
	deadline := start.Add(satWarmup + satBuckets*satBucket)
	var wg sync.WaitGroup
	for c := 0; c < satClients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for time.Now().Before(deadline) {
				body := next()
				st, err := postSync(client, g.base, body)
				at := time.Since(start)
				mu.Lock()
				switch {
				case err != nil || st.State != "done":
					sat.failed++
					fmt.Fprintf(os.Stderr, "perfbench: saturation request %s failed: %v %s\n", body, err, st.Error)
				default:
					sat.completed++
					sat.results[body] = st.Result
					if b := int((at - satWarmup) / satBucket); at >= satWarmup && b < len(sat.buckets) {
						sat.buckets[b]++
					}
				}
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	return sat
}

// postSync sends one explore request with "sync":true and decodes the
// settled job's status.
func postSync(client *http.Client, base, body string) (jobStatus, error) {
	var st jobStatus
	resp, err := client.Post(base+"/v1/explore", "application/json", strings.NewReader(`{"sync":true,`+body[1:]))
	if err != nil {
		return st, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		io.Copy(io.Discard, resp.Body)
		return st, fmt.Errorf("status %s", resp.Status)
	}
	err = json.NewDecoder(resp.Body).Decode(&st)
	return st, err
}

// runServe is the serve workload against a claired child on loopback: an
// open loop of async explore requests at the reference rate, then, in traced
// runs, a closed loop of sync requests that keeps claired saturated.
func runServe(cfg config, tr *tracer) (*outcome, error) {
	if cfg.claired == "" {
		return nil, errors.New("serve needs -claired")
	}
	out := newOutcome()
	ctl := &http.Client{Timeout: 30 * time.Second}
	defer ctl.CloseIdleConnections()
	// Only traced runs report the saturated rate; there the saturation loop
	// takes the end of the window.
	openLen := cfg.window
	if tr != nil {
		openLen = max(cfg.window-satWarmup-satBuckets*satBucket, cfg.window/2)
	}
	// claired keeps twice as many finished jobs as the open loop is expected
	// to create, so every job's status can still be read after it.
	history := int(2*refRate*openLen.Seconds()) + 1024
	// Each boot is timed from the start of the process until /healthz
	// answers; the children before the last are stopped untimed.
	var srv *child
	var boots []float64
	for i := 0; i < bootReps; i++ {
		if srv != nil {
			srv.stop()
		}
		start := time.Now()
		var err error
		if srv, err = startClaired(cfg.claired, history, ctl); err != nil {
			return nil, err
		}
		boots = append(boots, time.Since(start).Seconds())
	}
	defer srv.stop()
	setupS := median(boots)
	q1, q3 := quartiles(boots)
	fmt.Fprintf(os.Stderr, "perfbench: serve %d claired boots: median %.2f ms, quartiles %.2f-%.2f ms\n",
		bootReps, setupS*1e3, q1*1e3, q3*1e3)

	load := &http.Client{
		Timeout:   30 * time.Second,
		Transport: &http.Transport{MaxConnsPerHost: loadConns, MaxIdleConnsPerHost: loadConns},
	}
	defer load.CloseIdleConnections()
	g := &generator{base: srv.base, load: load, ctl: ctl, names: workload.Names(), seed: cfg.seed}

	// The open loop is a fixed amount of work, so the peak memory of the
	// server that ran it is the run's memory figure. The saturation loop
	// gets a fresh server: how many requests it completes must not move
	// that figure.
	rs := newRuntimeSampler()
	open, err := g.runOpen(refRate, openLen)
	if err != nil {
		return nil, err
	}
	var final serverMetrics
	if err := getJSON(ctl, srv.base+"/metrics", &final); err != nil {
		return nil, fmt.Errorf("reading /metrics: %w", err)
	}
	peakRSS := srv.stop()

	sat := &saturation{}
	if tr != nil {
		satSrv, err := startClaired(cfg.claired, history, ctl)
		if err != nil {
			return nil, err
		}
		defer satSrv.stop()
		g.base = satSrv.base
		sat = g.saturate()
		satSrv.stop()
	}
	rs.finish(out, len(open.reqs)+sat.completed+sat.failed)

	var inputs []string
	for _, r := range open.reqs {
		inputs = append(inputs, r.body)
	}
	fmt.Fprintf(os.Stderr, "perfbench: serve seed %d inputs %s (%d open-loop requests)\n",
		cfg.seed, digest(inputs...), len(inputs))
	ms, failed := open.latencies()
	for _, r := range open.reqs {
		if _, ok := open.latencyMS(r); !ok {
			msg := fmt.Sprint(r.err)
			if js := open.jobs[r.jobID]; js != nil {
				msg = js.State + ": " + js.Error
			}
			fmt.Fprintf(os.Stderr, "perfbench: serve request %s failed (status %d): %s\n", r.body, r.status, msg)
		}
	}
	growth := backlogGrowth(open.outstanding)
	fmt.Fprintf(os.Stderr, "perfbench: serve open loop at %.0f/s: %d requests, %d failed, p50 %.2f ms, tail %.2f ms, backlog growth %.1f jobs\n",
		refRate, len(open.reqs), failed, median(ms), tailMS(ms), growth)
	if tr != nil {
		fmt.Fprintf(os.Stderr, "perfbench: serve saturated: %.1f/s, %d failed\n", sat.ratePerS(), sat.failed)
	}
	if backlogGrowing(open.outstanding, backlogSlack) {
		fmt.Fprintf(os.Stderr, "perfbench: warning: backlog grew at the reference rate; it is above this machine's capacity\n")
	}
	out.attempted = len(open.reqs) + sat.completed + sat.failed
	out.failed = failed + sat.failed

	// Output check, after the timed window: every distinct response body
	// must equal serve.ExploreResultOf of the same library call.
	served := make(map[string]json.RawMessage)
	var order []string
	addServed := func(body string, res json.RawMessage) {
		if _, seen := served[body]; !seen {
			order = append(order, body)
		}
		served[body] = res
	}
	for _, r := range open.reqs {
		if js := open.jobs[r.jobID]; js != nil && js.State == "done" {
			addServed(r.body, js.Result)
		}
	}
	satBodies := make([]string, 0, len(sat.results))
	for body := range sat.results {
		satBodies = append(satBodies, body)
	}
	sort.Strings(satBodies)
	for _, body := range satBodies {
		addServed(body, sat.results[body])
	}
	execMS, err := checkResponses(out, order, served)
	if err != nil {
		return nil, err
	}

	out.values["setup_s"] = setupS
	out.values["peak_rss_mib"] = peakRSS
	out.values["latency_p50_ms"] = median(ms)
	if tr == nil {
		return out, nil
	}

	out.values["latency_p99_ms"] = tailMS(ms)
	var submit, lateness, jobMS, execOfJob []float64
	coalesced := 0
	for i, r := range open.reqs {
		if r.err != nil {
			continue
		}
		submit = append(submit, float64(r.acked.Sub(r.sent))/float64(time.Millisecond))
		lateness = append(lateness, float64(r.sent.Sub(r.due))/float64(time.Millisecond))
		if r.coalesced {
			coalesced++
		}
		lat, ok := open.latencyMS(r)
		if !ok {
			continue
		}
		// Spans of a served request are assembled here from the timestamps
		// every run records, so tracing adds no work to the timed window.
		id := tr.record("serve.request", 0, i, r.due, r.due.Add(time.Duration(lat*float64(time.Millisecond))))
		tr.record("serve.submit", id, i, r.sent, r.acked)
		if !r.coalesced {
			jobMS = append(jobMS, open.jobs[r.jobID].ElapsedMS)
			execOfJob = append(execOfJob, execMS[r.body])
		}
	}
	out.values["serve.submit_ms_p50"] = median(submit)
	out.values["gen.lateness_p99_ms"] = tailMS(lateness)
	out.values["serve.job_ms_p50"] = median(jobMS)
	out.values["serve.job_ms_p99"] = tailMS(jobMS)
	out.values["serve.exec_ms_p50"] = median(execOfJob)
	out.values["serve.queue_wait_ms_p50"] = median(jobMS) - median(execOfJob)
	if len(open.reqs) > 0 {
		out.values["serve.coalesced_ratio"] = float64(coalesced) / float64(len(open.reqs))
	}
	out.values["serve.rejected"] = float64(final.Rejected)
	out.values["serve.queue_depth_max"] = float64(open.depthMax)
	out.values["serve.backlog_growth"] = growth
	out.values["serve.saturated_rps"] = sat.ratePerS()
	out.values["eval.cache_hit_ratio"] = final.Cache.HitRate
	out.values["eval.cache_entries"] = float64(final.Cache.Entries)
	return out, nil
}

// checkResponses replays every distinct request body through the library on
// one in-process engine, in first-served order, and compares the served
// result with serve.ExploreResultOf of the replay, byte for byte. It returns
// each body's replay time in milliseconds: the library call on an engine
// the replays before it have warmed.
func checkResponses(out *outcome, order []string, served map[string]json.RawMessage) (map[string]float64, error) {
	ev := eval.New(eval.Options{})
	execMS := make(map[string]float64, len(order))
	for _, body := range order {
		start := time.Now()
		want, err := libraryResult(body, ev)
		execMS[body] = float64(time.Since(start)) / float64(time.Millisecond)
		if err != nil {
			return nil, fmt.Errorf("replaying %s: %w", body, err)
		}
		if !bytes.Equal(bytes.TrimSpace(served[body]), want) {
			out.problem("served result of %s differs from the library's", body)
		}
	}
	fmt.Fprintf(os.Stderr, "perfbench: serve checked %d distinct responses against the library\n", len(order))
	return execMS, nil
}

// libraryResult runs the library call an explore request stands for, the
// way claired executes it, and encodes serve.ExploreResultOf of the result.
func libraryResult(body string, ev *eval.Evaluator) ([]byte, error) {
	var req serve.ExploreRequest
	if err := json.Unmarshal([]byte(body), &req); err != nil {
		return nil, err
	}
	ms := make([]*workload.Model, len(req.Models))
	for i, name := range req.Models {
		m, err := workload.ByName(name)
		if err != nil {
			return nil, err
		}
		ms[i] = m
	}
	if req.Space == "" {
		req.Space = "paper"
	}
	cat := hw.Default()
	space, err := hw.ParseSpaceWith(req.Space, cat)
	if err != nil {
		return nil, err
	}
	cons := dse.DefaultConstraints()
	if c := req.Constraints; c != nil {
		if c.MaxChipAreaMM2 != nil {
			cons.MaxChipAreaMM2 = *c.MaxChipAreaMM2
		}
		if c.MaxPowerDensityWPerMM2 != nil {
			cons.MaxPowerDensityWPerMM2 = *c.MaxPowerDensityWPerMM2
		}
		if c.LatencySlack != nil {
			cons.LatencySlack = *c.LatencySlack
		}
	}
	var fo *dse.FidelityOptions
	if req.Fidelity == "staged" {
		o := core.DefaultOptions()
		o.Catalogue = cat
		fo = &dse.FidelityOptions{Mode: dse.FidelityStaged, Params: o.FidelityParams()}
	}
	ctx := context.Background()
	var res serve.ExploreResult
	if req.Search != "" {
		spec, err := search.ParseSpec(req.Search)
		if err != nil {
			return nil, err
		}
		opt, err := search.New(spec, search.Options{Seed: req.Seed, Evaluator: ev, Fidelity: fo})
		if err != nil {
			return nil, err
		}
		r, trace, err := opt.Run(ctx, ms, space, cons, req.Budget)
		if err != nil {
			return nil, err
		}
		res = serve.ExploreResultOf(r, &trace)
	} else {
		r, err := dse.ExploreSpaceCtx(ctx, ms, space, cons, ev, &dse.ExploreOptions{Fidelity: fo})
		if err != nil {
			return nil, err
		}
		res = serve.ExploreResultOf(r, nil)
	}
	return json.Marshal(res)
}
