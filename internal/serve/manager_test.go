package serve

// Manager semantics: coalescing folds identical requests onto one execution,
// cancellation (DELETE, disconnect, shutdown) actually stops the sweep —
// counter-verified against the design space — and admission control bounds
// the queue with 429s.

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/dse"
	"repro/internal/hw"
	"repro/internal/workload"
)

// countingSpace counts At calls — the direct measure of how many points a
// served sweep actually touched before cancellation cut it.
type countingSpace struct {
	hw.DesignSpace
	at atomic.Int64
	// throttle slows each point down so a cancel has a window to land while
	// the sweep is demonstrably mid-flight.
	throttle time.Duration
}

func (c *countingSpace) At(i int) hw.Point {
	c.at.Add(1)
	if c.throttle > 0 {
		time.Sleep(c.throttle)
	}
	return c.DesignSpace.At(i)
}

// blockingExec returns an exec that signals entry, counts executions, and
// parks until released or cancelled.
func blockingExec(execs *atomic.Int64, entered chan<- struct{}, release <-chan struct{}) func(context.Context, *Job) (any, error) {
	return func(ctx context.Context, _ *Job) (any, error) {
		execs.Add(1)
		if entered != nil {
			entered <- struct{}{}
		}
		select {
		case <-release:
			return "done", nil
		case <-ctx.Done():
			return nil, ctx.Err()
		}
	}
}

// TestCoalesceOneExecution pins the core coalescing contract at the manager:
// N identical submissions share one Job and one execution.
func TestCoalesceOneExecution(t *testing.T) {
	m := NewManager(ManagerConfig{Workers: 2, MaxQueue: 16})
	defer m.Close()

	var execs atomic.Int64
	entered := make(chan struct{}, 1)
	release := make(chan struct{})
	exec := blockingExec(&execs, entered, release)

	first, coalesced, err := m.Submit("explore", "key-A", false, exec)
	if err != nil || coalesced {
		t.Fatalf("first Submit: job=%v coalesced=%v err=%v", first, coalesced, err)
	}
	<-entered // the job is running and parked; every duplicate must coalesce

	const dups = 7
	for i := 0; i < dups; i++ {
		j, c, err := m.Submit("explore", "key-A", false, exec)
		if err != nil {
			t.Fatal(err)
		}
		if !c || j != first {
			t.Fatalf("duplicate %d: coalesced=%v job=%p, want attach to %p", i, c, j, first)
		}
	}
	if got := m.Metrics().Coalesced.Load(); got != dups {
		t.Errorf("coalesced counter = %d, want %d", got, dups)
	}

	close(release)
	<-first.Done()
	if got := execs.Load(); got != 1 {
		t.Errorf("executions = %d, want 1 (identical requests must share one run)", got)
	}
	if st := first.Snapshot(true); st.State != StateDone || st.Result != "done" {
		t.Errorf("job settled as %+v, want done/\"done\"", st)
	}
	for i := 0; i < dups+1; i++ {
		first.release()
	}

	// A terminal job's key is free again: the next submission is a fresh run.
	j2, c2, err := m.Submit("explore", "key-A", true,
		func(context.Context, *Job) (any, error) { return "again", nil })
	if err != nil || c2 || j2 == first {
		t.Fatalf("post-terminal Submit: job=%p coalesced=%v err=%v, want a fresh job", j2, c2, err)
	}
	<-j2.Done()
	if got := execs.Load(); got != 1 {
		t.Errorf("original exec ran %d times after fresh submission, want 1", got)
	}
}

// TestFinishedJobIsNotCoalescedOnto pins that a job stops taking
// attachments before its waiters see it finish: identical submissions, each
// awaited before the next, must each be admitted and run as a job of their
// own. The same holds right after a cancelled job, whose cancellation a
// later request must not inherit.
func TestFinishedJobIsNotCoalescedOnto(t *testing.T) {
	m := NewManager(ManagerConfig{Workers: 2, MaxQueue: 4})
	defer m.Close()
	var execs atomic.Int64
	quick := func(context.Context, *Job) (any, error) {
		execs.Add(1)
		return "done", nil
	}
	const n = 300
	for i := 0; i < n; i++ {
		j, coalesced, err := m.Submit("explore", "key-A", true, quick)
		if err != nil {
			t.Fatal(err)
		}
		if coalesced {
			t.Fatalf("submission %d coalesced onto finished job %s", i, j.ID)
		}
		spinUntilDone(j)
	}
	if got := m.Metrics().Accepted.Load(); got != n {
		t.Errorf("accepted %d jobs for %d sequential submissions, want %d", got, n, n)
	}
	if got := execs.Load(); got != n {
		t.Errorf("%d executions for %d sequential submissions, want %d", got, n, n)
	}

	const rounds = 50
	for i := 0; i < rounds; i++ {
		entered := make(chan struct{}, 1)
		victim, _, err := m.Submit("explore", "key-B", true, blockingExec(new(atomic.Int64), entered, nil))
		if err != nil {
			t.Fatal(err)
		}
		<-entered
		m.Cancel(victim.ID)
		spinUntilDone(victim)
		if st := victim.Snapshot(false); st.State != StateCancelled {
			t.Fatalf("round %d: cancelled job settled %v", i, st.State)
		}
		j, coalesced, err := m.Submit("explore", "key-B", true, quick)
		if err != nil {
			t.Fatal(err)
		}
		if coalesced || j == victim {
			t.Fatalf("round %d: submission after a cancelled job coalesced onto it", i)
		}
		<-j.Done()
		if st := j.Snapshot(true); st.State != StateDone || st.Result != "done" {
			t.Fatalf("round %d: submission after a cancelled job settled %+v, want done", i, st)
		}
	}
	if got := m.Metrics().Coalesced.Load(); got != 0 {
		t.Errorf("coalesced %d sequential submissions, want 0", got)
	}
}

// spinUntilDone waits for j to finish without parking, so the caller acts
// the moment Done closes, as a request arriving just then would.
func spinUntilDone(j *Job) {
	for {
		select {
		case <-j.Done():
			return
		default:
			runtime.Gosched()
		}
	}
}

// TestCoalesceOverHTTP drives the same contract end to end: with the single
// worker pinned by a blocker, N identical sync explores all ride one queued
// job and receive byte-identical responses, with exactly one admission.
func TestCoalesceOverHTTP(t *testing.T) {
	s, hs := startServer(t, ManagerConfig{Workers: 1, MaxQueue: 32})
	m := s.Manager()

	var execs atomic.Int64
	entered := make(chan struct{}, 1)
	release := make(chan struct{})
	if _, _, err := m.Submit("block", "blocker", true, blockingExec(&execs, entered, release)); err != nil {
		t.Fatal(err)
	}
	<-entered // the only worker is parked; everything below stays queued

	const n = 10
	req := ExploreRequest{Models: workload.Names()[:1], Sync: true}
	results := make([][]byte, n)
	errs := make(chan error, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			code, body := postJSONQuiet(hs.URL+"/v1/explore", req)
			if code != http.StatusOK {
				errs <- fmt.Errorf("request %d: code %d body %s", i, code, body)
				return
			}
			results[i] = body
		}(i)
	}
	// Release the blocker only once every duplicate has attached: first
	// request admits the job, the other n-1 coalesce onto it while queued.
	waitCond(t, 10*time.Second, func() bool { return m.Metrics().Coalesced.Load() == n-1 })
	close(release)
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}

	for i := 1; i < n; i++ {
		if !bytes.Equal(results[i], results[0]) {
			t.Fatalf("response %d differs from response 0:\n%s\nvs\n%s", i, results[i], results[0])
		}
	}
	met := m.Metrics()
	if got := met.Accepted.Load(); got != 2 { // blocker + one explore
		t.Errorf("accepted = %d, want 2", got)
	}
	if got := met.Coalesced.Load(); got != n-1 {
		t.Errorf("coalesced = %d, want %d", got, n-1)
	}
}

// postJSONQuiet is postJSON without the testing.T plumbing, usable from
// worker goroutines (errors surface as status 0).
func postJSONQuiet(url string, body any) (int, []byte) {
	b, err := json.Marshal(body)
	if err != nil {
		return 0, []byte(err.Error())
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(b))
	if err != nil {
		return 0, []byte(err.Error())
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	buf.ReadFrom(resp.Body)
	return resp.StatusCode, buf.Bytes()
}

// TestDeleteCancelsRunningSweep pins DELETE-driven cancellation with the
// point counter: a fine-space explore cancelled after its first chunk stops
// having touched a small fraction of the space.
func TestDeleteCancelsRunningSweep(t *testing.T) {
	s, hs := startServer(t, ManagerConfig{Workers: 1, MaxQueue: 8})
	m := s.Manager()

	space := &countingSpace{DesignSpace: hw.FineSpace(), throttle: 50 * time.Microsecond}
	n := space.Len()
	models := []*workload.Model{workload.NewAlexNet()}
	j, _, err := m.Submit(KindExplore, "counted-fine", true, func(ctx context.Context, j *Job) (any, error) {
		res, err := dse.ExploreSpaceCtx(ctx, models, space, dse.DefaultConstraints(), m.Evaluator(),
			&dse.ExploreOptions{ChunkSize: 64, Progress: j.publish})
		if err != nil {
			return nil, err
		}
		return ExploreResultOf(res, nil), nil
	})
	if err != nil {
		t.Fatal(err)
	}

	// Wait for the first progress sample, then cancel through the HTTP DELETE.
	waitCond(t, 10*time.Second, func() bool {
		p, _ := j.progressEdge()
		return p.Done > 0
	})
	reqDel, _ := http.NewRequest(http.MethodDelete, fmt.Sprintf("%s/v1/jobs/%s", hs.URL, j.ID), nil)
	resp, err := http.DefaultClient.Do(reqDel)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("DELETE returned %d", resp.StatusCode)
	}

	st := waitState(t, hs.URL, j.ID)
	if st.State != StateCancelled {
		t.Fatalf("deleted job settled as %v (error %q), want cancelled", st.State, st.Error)
	}
	if got := int(space.at.Load()); got >= n/2 {
		t.Errorf("cancelled sweep touched %d of %d points, want < %d (the sweep must actually stop)", got, n, n/2)
	}
	if got := m.Metrics().Cancelled.Load(); got != 1 {
		t.Errorf("cancelled counter = %d, want 1", got)
	}
}

// TestDisconnectCancelsSyncJob pins waiter-refcount cancellation: when a sync
// request's client goes away and nobody else is attached, the execution is
// cancelled with the abandonment cause. The single worker is pinned by a
// blocker so the sync job is deterministically still pending when the client
// disconnects.
func TestDisconnectCancelsSyncJob(t *testing.T) {
	s, hs := startServer(t, ManagerConfig{Workers: 1, MaxQueue: 8})
	m := s.Manager()

	var execs atomic.Int64
	entered := make(chan struct{}, 1)
	release := make(chan struct{})
	if _, _, err := m.Submit("block", "blocker", true, blockingExec(&execs, entered, release)); err != nil {
		t.Fatal(err)
	}
	<-entered // blocker is j000001 and owns the only worker

	body := []byte(`{"models":["` + workload.Names()[0] + `"],"sync":true}`)
	ctx, cancel := context.WithCancel(context.Background())
	req, _ := http.NewRequestWithContext(ctx, http.MethodPost, hs.URL+"/v1/explore", bytes.NewReader(body))
	req.Header.Set("Content-Type", "application/json")
	done := make(chan struct{})
	go func() {
		defer close(done)
		if resp, err := http.DefaultClient.Do(req); err == nil {
			resp.Body.Close()
		}
	}()

	// The sync explore is j000002, queued behind the blocker. Sever its only
	// client, then free the worker: the abandoned job must settle cancelled
	// without ever executing.
	waitCond(t, 10*time.Second, func() bool {
		_, ok := m.Get("j000002")
		return ok
	})
	cancel()
	<-done
	waitCond(t, 10*time.Second, func() bool {
		j, _ := m.Get("j000002")
		return j.ctx.Err() != nil
	})
	close(release)

	st := waitState(t, hs.URL, "j000002")
	if st.State != StateCancelled {
		t.Fatalf("abandoned job settled as %v (error %q), want cancelled", st.State, st.Error)
	}
	if !strings.Contains(st.Error, "disconnected") {
		t.Errorf("abandoned job error = %q, want the all-waiters-disconnected cause", st.Error)
	}
	if got := execs.Load(); got != 1 { // the blocker only
		t.Errorf("abandoned job executed (execs = %d, want 1)", got)
	}
}

// TestAdmissionControl pins the 429 surface: with the worker pinned and the
// one-deep queue full, a third distinct job is rejected with Retry-After.
func TestAdmissionControl(t *testing.T) {
	s, hs := startServer(t, ManagerConfig{Workers: 1, MaxQueue: 1})
	m := s.Manager()

	var execs atomic.Int64
	entered := make(chan struct{}, 1)
	release := make(chan struct{})
	defer close(release)
	if _, _, err := m.Submit("block", "blocker", true, blockingExec(&execs, entered, release)); err != nil {
		t.Fatal(err)
	}
	<-entered

	// One distinct async job fills the queue...
	code, body := postJSON(t, hs.URL+"/v1/explore", ExploreRequest{Models: workload.Names()[:1]})
	if code != http.StatusAccepted {
		t.Fatalf("queued submission returned %d: %s", code, body)
	}
	// ...an identical one still coalesces (coalescing bypasses admission)...
	code, _ = postJSON(t, hs.URL+"/v1/explore", ExploreRequest{Models: workload.Names()[:1]})
	if code != http.StatusAccepted {
		t.Fatalf("identical submission was not coalesced: %d", code)
	}
	// ...and a distinct one is turned away.
	resp, err := http.Post(hs.URL+"/v1/explore", "application/json",
		strings.NewReader(`{"models":["`+workload.Names()[1]+`"]}`))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("overflow submission returned %d, want 429", resp.StatusCode)
	}
	if got := resp.Header.Get("Retry-After"); got != "1" {
		t.Errorf("Retry-After = %q, want \"1\"", got)
	}
	if got := m.Metrics().Rejected.Load(); got != 1 {
		t.Errorf("rejected counter = %d, want 1", got)
	}
}

// TestCloseCancelsLiveJobs pins shutdown: Close cancels running work, drains
// the pool, and subsequent submissions fail with ErrShutdown.
func TestCloseCancelsLiveJobs(t *testing.T) {
	m := NewManager(ManagerConfig{Workers: 2, MaxQueue: 8})
	var execs atomic.Int64
	entered := make(chan struct{}, 1)
	j, _, err := m.Submit("block", "k", true, blockingExec(&execs, entered, nil))
	if err != nil {
		t.Fatal(err)
	}
	<-entered
	m.Close()
	<-j.Done()
	if st := j.Snapshot(false); st.State != StateCancelled {
		t.Errorf("job at shutdown settled as %v, want cancelled", st.State)
	}
	if _, _, err := m.Submit("block", "k2", true, blockingExec(&execs, nil, nil)); !errors.Is(err, ErrShutdown) {
		t.Errorf("post-Close Submit returned %v, want ErrShutdown", err)
	}
}

// waitCond polls a predicate with a deadline.
func waitCond(t *testing.T, timeout time.Duration, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatal("condition not reached in time")
}

// goroutineBaseline waits for the runtime to settle near a goroutine count.
func goroutineBaseline(limit int, timeout time.Duration) int {
	deadline := time.Now().Add(timeout)
	n := runtime.NumGoroutine()
	for time.Now().Before(deadline) && n > limit {
		time.Sleep(5 * time.Millisecond)
		n = runtime.NumGoroutine()
	}
	return n
}
