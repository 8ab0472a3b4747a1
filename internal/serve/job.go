package serve

import (
	"context"
	"encoding/json"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/eval"
	"repro/internal/hw"
	"repro/internal/metrics"
)

// State is a job's lifecycle position.
type State int32

const (
	StateQueued State = iota
	StateRunning
	StateDone
	StateFailed
	StateCancelled
)

// String renders the state for the wire.
func (s State) String() string {
	switch s {
	case StateQueued:
		return "queued"
	case StateRunning:
		return "running"
	case StateDone:
		return "done"
	case StateFailed:
		return "failed"
	case StateCancelled:
		return "cancelled"
	}
	return "unknown"
}

// MarshalJSON encodes the state as its name.
func (s State) MarshalJSON() ([]byte, error) { return json.Marshal(s.String()) }

// UnmarshalJSON parses a state name — the wire inverse of MarshalJSON, so Go
// clients (the tests) can decode Status directly.
func (s *State) UnmarshalJSON(b []byte) error {
	var name string
	if err := json.Unmarshal(b, &name); err != nil {
		return err
	}
	for c := StateQueued; c <= StateCancelled; c++ {
		if c.String() == name {
			*s = c
			return nil
		}
	}
	return fmt.Errorf("serve: unknown job state %q", name)
}

// Terminal reports whether the state is final.
func (s State) Terminal() bool { return s >= StateDone }

// Progress is one cumulative scan-progress sample, fed from the streaming
// sweep's chunk counters.
type Progress struct {
	Done  int `json:"done"`
	Total int `json:"total"`
}

// Job is one admitted computation. All mutable fields are guarded by mu; the
// done channel closes exactly once when the job reaches a terminal state.
type Job struct {
	ID   string
	Kind string
	Key  string

	ctx    context.Context
	cancel context.CancelCauseFunc

	// refs counts waiters whose HTTP request is attached to this job (sync
	// creators, coalesced attachers, stream subscribers). When the last
	// waiter disconnects and the job is not detached, the execution is
	// cancelled — nobody wants the answer anymore. Fire-and-forget jobs are
	// detached and run to completion regardless.
	refs     atomic.Int64
	detached atomic.Bool

	mu       sync.Mutex
	state    State
	progress Progress
	// progressSig is closed and replaced on every progress update — a
	// broadcast edge streaming subscribers select on.
	progressSig chan struct{}
	result      any
	err         error
	created     time.Time
	started     time.Time
	finished    time.Time

	done chan struct{}

	// exec carries the job's work, bound at submission. It receives the job
	// itself so long-running sweeps can publish progress to it. finish drops
	// it, so a job kept in the history holds its outcome, not the resolved
	// request (models, options, a built mix space) the closure captured.
	exec func(ctx context.Context, j *Job) (any, error)
}

// Status is the wire digest of a job.
type Status struct {
	ID        string    `json:"id"`
	Kind      string    `json:"kind"`
	State     State     `json:"state"`
	Progress  *Progress `json:"progress,omitempty"`
	Error     string    `json:"error,omitempty"`
	Result    any       `json:"result,omitempty"`
	ElapsedMS float64   `json:"elapsed_ms"`
}

// Snapshot digests the job under its lock.
func (j *Job) Snapshot(includeResult bool) Status {
	j.mu.Lock()
	defer j.mu.Unlock()
	st := Status{ID: j.ID, Kind: j.Kind, State: j.state}
	if j.progress.Total > 0 {
		p := j.progress
		st.Progress = &p
	}
	if j.err != nil {
		st.Error = j.err.Error()
	}
	if includeResult && j.state == StateDone {
		st.Result = j.result
	}
	end := j.finished
	if end.IsZero() {
		end = time.Now()
	}
	st.ElapsedMS = float64(end.Sub(j.created)) / float64(time.Millisecond)
	return st
}

// publish folds one cumulative progress sample into the job (keeping the
// monotone max — late chunks can report smaller counts) and wakes streaming
// subscribers. Safe for concurrent use by the sweep's workers.
func (j *Job) publish(done, total int) {
	j.mu.Lock()
	if done > j.progress.Done || j.progress.Total == 0 {
		if done > j.progress.Done {
			j.progress.Done = done
		}
		j.progress.Total = total
		close(j.progressSig)
		j.progressSig = make(chan struct{})
	}
	j.mu.Unlock()
}

// progressEdge returns the current sample and the channel that closes on the
// next update.
func (j *Job) progressEdge() (Progress, <-chan struct{}) {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.progress, j.progressSig
}

// Done exposes the terminal-state edge.
func (j *Job) Done() <-chan struct{} { return j.done }

// attach adds one waiter reference.
func (j *Job) attach() { j.refs.Add(1) }

// release drops one waiter reference; the last release of a non-detached,
// still-live job cancels it (abandoned work is cut promptly — the
// chunk-granular ctx checks in dse make this effective mid-sweep).
func (j *Job) release() {
	if j.refs.Add(-1) == 0 && !j.detached.Load() {
		select {
		case <-j.done:
		default:
			j.cancel(errAbandoned)
		}
	}
}

var (
	errAbandoned = fmt.Errorf("serve: all waiters disconnected")
	// ErrBusy is returned by Submit when admission control refuses the job.
	ErrBusy = fmt.Errorf("serve: server at capacity")
	// ErrShutdown is returned by Submit after Close.
	ErrShutdown = fmt.Errorf("serve: server shutting down")
)

// ManagerConfig sizes the job manager.
type ManagerConfig struct {
	// Workers is the number of concurrent job executions (0: 2).
	Workers int
	// MaxQueue bounds jobs admitted but not yet running (0: 64). A full
	// queue rejects with ErrBusy — the HTTP layer's 429.
	MaxQueue int
	// History bounds retained terminal jobs (0: 256). Older jobs are evicted
	// oldest-first; their status becomes 404.
	History int
	// Catalogue is the server's chiplet catalogue (nil: built-in default).
	Catalogue *hw.Catalogue
	// EvalWorkers caps the shared evaluation engine's parallelism per job
	// (0: GOMAXPROCS).
	EvalWorkers int
	// Metrics receives operational counters (nil: a fresh sink).
	Metrics *metrics.ServerMetrics
}

// Manager owns the job lifecycle: admission, coalescing, execution, history.
// One Manager holds one process-lifetime eval.Evaluator, so every job shares
// its cache — repeated workloads hit warm plans and built designs.
type Manager struct {
	cfg     ManagerConfig
	cat     *hw.Catalogue
	ev      *eval.Evaluator
	met     *metrics.ServerMetrics
	queue   chan *Job
	quit    chan struct{}
	wg      sync.WaitGroup
	idSeq   atomic.Int64
	running atomic.Int64
	// interned maps each workload name to the one model the manager serves
	// it with, filled lazily (see Manager.models).
	interned sync.Map // string -> *workload.Model

	mu      sync.Mutex
	closed  bool
	jobs    map[string]*Job // by ID (live + bounded history)
	active  map[string]*Job // by coalescing key, queued or running only
	history []string        // terminal job IDs in finish order, for eviction
}

// NewManager starts the worker pool.
func NewManager(cfg ManagerConfig) *Manager {
	if cfg.Workers <= 0 {
		cfg.Workers = 2
	}
	if cfg.MaxQueue <= 0 {
		cfg.MaxQueue = 64
	}
	if cfg.History <= 0 {
		cfg.History = 256
	}
	cat := cfg.Catalogue
	if cat == nil {
		cat = hw.Default()
	}
	met := cfg.Metrics
	if met == nil {
		met = metrics.NewServerMetrics(0)
	}
	m := &Manager{
		cfg:    cfg,
		cat:    cat,
		ev:     eval.New(eval.Options{Workers: cfg.EvalWorkers}),
		met:    met,
		queue:  make(chan *Job, cfg.MaxQueue),
		quit:   make(chan struct{}),
		jobs:   make(map[string]*Job),
		active: make(map[string]*Job),
	}
	for i := 0; i < cfg.Workers; i++ {
		m.wg.Add(1)
		go m.worker()
	}
	return m
}

// Catalogue returns the server's catalogue.
func (m *Manager) Catalogue() *hw.Catalogue { return m.cat }

// Evaluator returns the process-lifetime shared engine.
func (m *Manager) Evaluator() *eval.Evaluator { return m.ev }

// Metrics returns the operational counter sink.
func (m *Manager) Metrics() *metrics.ServerMetrics { return m.met }

// QueueDepth is the number of admitted, not-yet-running jobs.
func (m *Manager) QueueDepth() int { return len(m.queue) }

// Running is the number of in-flight executions.
func (m *Manager) Running() int { return int(m.running.Load()) }

// Submit admits a job or coalesces it onto an identical active one. The
// returned bool is true when the caller's request attached to an existing
// execution. detached jobs run to completion even with zero waiters;
// attached (sync/stream) callers must pair Submit with job.release().
func (m *Manager) Submit(kind, key string, detached bool, exec func(ctx context.Context, j *Job) (any, error)) (*Job, bool, error) {
	m.mu.Lock()
	if m.closed {
		m.mu.Unlock()
		return nil, false, ErrShutdown
	}
	if j, ok := m.active[key]; ok {
		// Coalesce: same computation already queued or running. The new
		// request becomes a waiter; a detached duplicate pins the job so a
		// sync peer's disconnect cannot cancel it out from under the
		// fire-and-forget submission.
		if detached {
			j.detached.Store(true)
		} else {
			j.attach()
		}
		m.mu.Unlock()
		m.met.Coalesced.Add(1)
		return j, true, nil
	}
	ctx, cancel := context.WithCancelCause(context.Background())
	j := &Job{
		ID:          fmt.Sprintf("j%06d", m.idSeq.Add(1)),
		Kind:        kind,
		Key:         key,
		ctx:         ctx,
		cancel:      cancel,
		progressSig: make(chan struct{}),
		created:     time.Now(),
		done:        make(chan struct{}),
		exec:        exec,
	}
	j.detached.Store(detached)
	if !detached {
		j.attach()
	}
	select {
	case m.queue <- j:
	default:
		m.mu.Unlock()
		cancel(ErrBusy)
		m.met.Rejected.Add(1)
		return nil, false, ErrBusy
	}
	m.jobs[j.ID] = j
	m.active[key] = j
	m.mu.Unlock()
	m.met.Accepted.Add(1)
	return j, false, nil
}

// Get looks a job up by ID.
func (m *Manager) Get(id string) (*Job, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	j, ok := m.jobs[id]
	return j, ok
}

// Cancel cancels a job by ID (DELETE /v1/jobs/{id}). Terminal jobs are
// unaffected; the bool reports whether the job exists.
func (m *Manager) Cancel(id string) bool {
	j, ok := m.Get(id)
	if !ok {
		return false
	}
	j.cancel(context.Canceled)
	return true
}

// Counts tallies jobs by state for /metrics.
func (m *Manager) Counts() map[string]int {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := make(map[string]int, 5)
	for _, j := range m.jobs {
		j.mu.Lock()
		s := j.state
		j.mu.Unlock()
		out[s.String()]++
	}
	return out
}

// Close stops admitting, cancels every live job, and waits for the workers
// to drain — the graceful-shutdown path (and the no-goroutine-leak pin in
// the tests).
func (m *Manager) Close() {
	m.mu.Lock()
	if m.closed {
		m.mu.Unlock()
		m.wg.Wait()
		return
	}
	m.closed = true
	live := make([]*Job, 0, len(m.active))
	for _, j := range m.active {
		live = append(live, j)
	}
	m.mu.Unlock()
	for _, j := range live {
		j.cancel(ErrShutdown)
	}
	close(m.quit)
	m.wg.Wait()
}

// worker drains the queue until shutdown.
func (m *Manager) worker() {
	defer m.wg.Done()
	for {
		select {
		case <-m.quit:
			return
		case j := <-m.queue:
			m.run(j)
		}
	}
}

// run executes one job and settles its terminal state.
func (m *Manager) run(j *Job) {
	// A job cancelled while queued skips execution entirely.
	if err := j.ctx.Err(); err != nil {
		m.finish(j, nil, context.Cause(j.ctx))
		return
	}
	j.mu.Lock()
	j.state = StateRunning
	j.started = time.Now()
	j.mu.Unlock()
	m.running.Add(1)
	res, err := j.exec(j.ctx, j)
	m.running.Add(-1)
	// A job that produced its result keeps it even if a cancel raced in
	// after the work completed; a job that errored because its context was
	// cancelled reports the recorded cause (DELETE, disconnect, shutdown).
	if err != nil && j.ctx.Err() != nil {
		err = context.Cause(j.ctx)
	}
	m.finish(j, res, err)
}

// finish settles the terminal state, releases the job's work and the
// coalescing slot, records metrics and evicts old history.
func (m *Manager) finish(j *Job, res any, err error) {
	j.mu.Lock()
	j.exec = nil
	j.finished = time.Now()
	switch {
	case err == nil:
		j.state = StateDone
		j.result = res
	case j.ctx.Err() != nil:
		j.state = StateCancelled
		j.err = err
	default:
		j.state = StateFailed
		j.err = err
	}
	state := j.state
	latency := j.finished.Sub(j.created)
	j.mu.Unlock()
	close(j.done)
	j.cancel(nil) // release the context's resources

	switch state {
	case StateDone:
		m.met.Completed.Add(1)
	case StateCancelled:
		m.met.Cancelled.Add(1)
	default:
		m.met.Failed.Add(1)
	}
	m.met.ObserveLatency(latency)

	m.mu.Lock()
	if m.active[j.Key] == j {
		delete(m.active, j.Key)
	}
	m.history = append(m.history, j.ID)
	for len(m.history) > m.cfg.History {
		delete(m.jobs, m.history[0])
		m.history = m.history[1:]
	}
	m.mu.Unlock()
}
