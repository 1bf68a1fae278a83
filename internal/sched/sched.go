// Package sched implements the service's weighted-fair job scheduler
// and admission-control layer: the replacement for the one global FIFO
// semaphore that could not survive multi-tenant traffic (one heavy
// tenant starved everyone and the queue grew without bound).
//
// # Model
//
// Every job belongs to a tenant and carries a cost estimate. The
// scheduler runs start-time fair queueing (SFQ, the virtual-time form
// of weighted fair queueing): each tenant keeps a FIFO of pending
// tickets, a ticket enqueued by tenant t is tagged with the virtual
// start time
//
//	S = max(V, F_t)        F_t ← S + cost/weight_t
//
// where V is the scheduler's virtual clock (the start tag of the most
// recently dispatched ticket) and F_t the tenant's running virtual
// finish. Whenever a run slot is free, the ticket with the smallest
// start tag among eligible tenants is dispatched; ties break by tenant
// name so the order is deterministic. Backlogged tenants therefore
// converge to service shares proportional to their weights, and a
// light tenant's first job is tagged at the current virtual clock —
// ahead of every queued ticket of a flooding tenant — which bounds its
// wait by the in-service work plus one quantum (the starvation-freedom
// invariant pinned by the package tests).
//
// Priority classes sit above the virtual clock: an eligible ticket of
// a higher-priority tenant always dispatches before any lower class,
// with SFQ fairness applying within each class.
//
// # Admission control
//
// Enqueue sheds instead of queueing without bound: a tenant whose
// token-bucket rate limit is exhausted, whose own pending queue is
// full, or who would overflow the global pending bound receives a
// *ShedError carrying a Retry-After hint — rate shortfall for the
// bucket, queue-ahead divided by the observed drain rate for full
// queues. Per-tenant running quotas (MaxConcurrent) cap how many slots
// one tenant may hold at once regardless of backlog.
package sched

import (
	"context"
	"errors"
	"fmt"
	"math"
	"sort"
	"sync"
	"time"
)

// TenantConfig is one tenant's scheduling policy. The zero value is a
// weight-1, priority-0 tenant with no rate limit, no running quota,
// and the scheduler-default queue bound.
type TenantConfig struct {
	// Weight is the tenant's relative service share under contention;
	// <= 0 means 1. A weight-3 tenant backlogged against a weight-1
	// tenant receives 3x the dispatches.
	Weight int `json:"weight,omitempty"`
	// Priority is the tenant's class; an eligible higher-priority
	// ticket always dispatches before any lower one. Default 0.
	Priority int `json:"priority,omitempty"`
	// MaxQueue bounds the tenant's pending queue; <= 0 inherits the
	// scheduler's global bound. Submissions past it are shed.
	MaxQueue int `json:"maxQueue,omitempty"`
	// MaxConcurrent caps how many run slots the tenant may hold at
	// once; <= 0 means no per-tenant cap (the global slot count still
	// applies).
	MaxConcurrent int `json:"maxConcurrent,omitempty"`
	// RatePerSec is the tenant's token-bucket refill rate in
	// admissions per second; 0 means unlimited.
	RatePerSec float64 `json:"ratePerSec,omitempty"`
	// Burst is the token-bucket capacity; <= 0 means
	// max(1, ceil(RatePerSec)).
	Burst int `json:"burst,omitempty"`
}

// Config sizes a Scheduler.
type Config struct {
	// Slots is the number of concurrently dispatched jobs; <= 0 means 2.
	Slots int
	// MaxQueue bounds total pending tickets across all tenants; 0
	// means 4096, negative disables the global bound (per-tenant
	// bounds still apply, themselves defaulting to 4096).
	MaxQueue int
	// DefaultTenant is the policy template for tenants without an
	// explicit entry in Tenants — including the default (empty-name)
	// tenant every unattributed request maps to.
	DefaultTenant TenantConfig
	// Tenants holds per-tenant policy overrides keyed by tenant name.
	Tenants map[string]TenantConfig
	// Clock overrides the time source; nil means time.Now. Tests use
	// it to drive the rate limiter and wait accounting virtually.
	Clock func() time.Time
}

// defaultMaxQueue is the pending bound applied when a Config leaves
// MaxQueue zero: bounded by default is the whole point of the layer.
const defaultMaxQueue = 4096

// Shed reasons reported by ShedError.
const (
	// ShedRateLimited: the tenant's token bucket is empty.
	ShedRateLimited = "rate limited"
	// ShedTenantQueueFull: the tenant's pending queue is at its bound.
	ShedTenantQueueFull = "tenant queue full"
	// ShedGlobalQueueFull: the scheduler-wide pending bound is reached.
	ShedGlobalQueueFull = "global queue full"
)

// ShedError is the admission-control rejection: the request was not
// enqueued and should be retried after RetryAfter. The HTTP layer maps
// it to 429 with a Retry-After header.
type ShedError struct {
	// Tenant is the shed tenant's name ("" is the default tenant).
	Tenant string
	// Reason is one of the Shed* constants.
	Reason string
	// RetryAfter is the suggested backoff: the token-bucket shortfall
	// for rate sheds, queue-ahead over the observed drain rate for
	// full queues; always at least one second.
	RetryAfter time.Duration
}

// Error implements error.
func (e *ShedError) Error() string {
	return fmt.Sprintf("sched: %s (tenant %q, retry after %s)", e.Reason, e.Tenant, e.RetryAfter)
}

// ErrClosed rejects tickets and enqueues once the scheduler has shut
// down.
var ErrClosed = errors.New("sched: scheduler closed")

// Ticket states.
const (
	stateQueued = iota
	stateDispatched
	stateDone
	stateCanceled
)

// Ticket is one queued or running job's handle on the scheduler. The
// owner must Wait for dispatch and call Done when the job finishes (or
// abandon via Wait's context, which removes a still-queued ticket).
type Ticket struct {
	s      *Scheduler
	tenant *tenant
	cost   int64
	start  float64 // virtual start tag
	ready  chan struct{}

	// Owned by s.mu.
	state      int
	err        error
	enqueuedAt time.Time
	dispatched time.Time
}

// Scheduler is the weighted-fair queue. Create with New; Close on
// shutdown fails every still-queued ticket.
type Scheduler struct {
	cfg Config
	now func() time.Time

	mu      sync.Mutex
	closed  bool
	tenants map[string]*tenant
	order   []*tenant // deterministic iteration: sorted by (priority desc, name)
	vtime   float64
	running int
	queued  int
	shed    int64
	// drainRate is an EWMA of ticket completions per second, the
	// denominator of queue-full Retry-After hints.
	drainRate float64
	lastDone  time.Time
}

// tenant is the per-tenant scheduler state; all fields owned by
// Scheduler.mu.
type tenant struct {
	name  string
	cfg   TenantConfig
	queue []*Ticket
	// finish is the tenant's running virtual finish tag F_t.
	finish  float64
	running int
	// Token bucket.
	tokens     float64
	lastRefill time.Time
	// Stats.
	served      int64
	servedCost  int64
	shed        int64
	rateLimited int64
	waitTotal   time.Duration
}

// New creates a Scheduler.
func New(cfg Config) *Scheduler {
	if cfg.Slots <= 0 {
		cfg.Slots = 2
	}
	if cfg.MaxQueue == 0 {
		cfg.MaxQueue = defaultMaxQueue
	}
	now := cfg.Clock
	if now == nil {
		now = time.Now
	}
	return &Scheduler{cfg: cfg, now: now, tenants: make(map[string]*tenant)}
}

// weight returns the tenant's effective weight.
func (t *tenant) weight() int {
	if t.cfg.Weight <= 0 {
		return 1
	}
	return t.cfg.Weight
}

// eligible reports whether the tenant has a dispatchable head: pending
// work and a free slot under its running quota.
func (t *tenant) eligible() bool {
	if len(t.queue) == 0 {
		return false
	}
	return t.cfg.MaxConcurrent <= 0 || t.running < t.cfg.MaxConcurrent
}

// tenantLocked finds or creates the named tenant's state, resolving
// its policy from Config.Tenants with DefaultTenant as the template.
func (s *Scheduler) tenantLocked(name string) *tenant {
	if t, ok := s.tenants[name]; ok {
		return t
	}
	cfg, ok := s.cfg.Tenants[name]
	if !ok {
		cfg = s.cfg.DefaultTenant
	}
	t := &tenant{name: name, cfg: cfg, lastRefill: s.now()}
	if cfg.RatePerSec > 0 {
		t.tokens = float64(t.burst())
	}
	s.tenants[name] = t
	s.order = append(s.order, t)
	sort.SliceStable(s.order, func(i, j int) bool {
		a, b := s.order[i], s.order[j]
		if a.cfg.Priority != b.cfg.Priority {
			return a.cfg.Priority > b.cfg.Priority
		}
		return a.name < b.name
	})
	return t
}

// burst returns the tenant's effective token-bucket capacity.
func (t *tenant) burst() int {
	if t.cfg.Burst > 0 {
		return t.cfg.Burst
	}
	return int(math.Max(1, math.Ceil(t.cfg.RatePerSec)))
}

// takeToken refills and consumes one rate token, or reports how long
// until one is available.
func (t *tenant) takeToken(now time.Time) (bool, time.Duration) {
	if t.cfg.RatePerSec <= 0 {
		return true, 0
	}
	elapsed := now.Sub(t.lastRefill).Seconds()
	if elapsed > 0 {
		t.tokens = math.Min(float64(t.burst()), t.tokens+elapsed*t.cfg.RatePerSec)
		t.lastRefill = now
	}
	if t.tokens >= 1 {
		t.tokens--
		return true, 0
	}
	wait := time.Duration((1 - t.tokens) / t.cfg.RatePerSec * float64(time.Second))
	return false, wait
}

// maxQueue returns the tenant's effective pending bound.
func (s *Scheduler) maxQueue(t *tenant) int {
	if t.cfg.MaxQueue > 0 {
		return t.cfg.MaxQueue
	}
	if s.cfg.MaxQueue > 0 {
		return s.cfg.MaxQueue
	}
	return defaultMaxQueue
}

// clampRetry bounds a Retry-After hint to [1s, 5m]: sub-second hints
// invite immediate re-stampedes and anything past minutes is a guess.
func clampRetry(d time.Duration) time.Duration {
	if d < time.Second {
		return time.Second
	}
	if d > 5*time.Minute {
		return 5 * time.Minute
	}
	return d
}

// retryAfterLocked estimates how long until ahead queued tickets drain,
// from the completion-rate EWMA (falling back to one slot-second per
// job before any completion has been observed).
func (s *Scheduler) retryAfterLocked(ahead int) time.Duration {
	rate := s.drainRate
	if rate <= 0 {
		rate = float64(s.cfg.Slots)
	}
	return clampRetry(time.Duration(float64(ahead+1) / rate * float64(time.Second)))
}

// Enqueue admits one job of the given cost (clamped to >= 1) for the
// named tenant and returns its Ticket, or a *ShedError when admission
// control rejects it: the tenant's rate bucket is empty, its queue is
// full, or the global pending bound is reached. The ticket dispatches
// immediately when a slot is free and the tenant is next in fair
// order.
func (s *Scheduler) Enqueue(tenantName string, cost int64) (*Ticket, error) {
	if cost < 1 {
		cost = 1
	}
	now := s.now()
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil, ErrClosed
	}
	t := s.tenantLocked(tenantName)
	if ok, wait := t.takeToken(now); !ok {
		t.rateLimited++
		t.shed++
		s.shed++
		return nil, &ShedError{Tenant: tenantName, Reason: ShedRateLimited, RetryAfter: clampRetry(wait)}
	}
	if len(t.queue) >= s.maxQueue(t) {
		t.shed++
		s.shed++
		return nil, &ShedError{Tenant: tenantName, Reason: ShedTenantQueueFull, RetryAfter: s.retryAfterLocked(len(t.queue))}
	}
	if s.cfg.MaxQueue > 0 && s.queued >= s.cfg.MaxQueue {
		t.shed++
		s.shed++
		return nil, &ShedError{Tenant: tenantName, Reason: ShedGlobalQueueFull, RetryAfter: s.retryAfterLocked(s.queued)}
	}
	start := math.Max(s.vtime, t.finish)
	t.finish = start + float64(cost)/float64(t.weight())
	tk := &Ticket{
		s:          s,
		tenant:     t,
		cost:       cost,
		start:      start,
		ready:      make(chan struct{}),
		state:      stateQueued,
		enqueuedAt: now,
	}
	t.queue = append(t.queue, tk)
	s.queued++
	s.dispatchLocked()
	return tk, nil
}

// AdmitSession applies only the tenant's token-bucket rate limit — the
// admission path for requests that never enter the run queue, like
// stream-session opens. It returns a *ShedError when the bucket is
// empty and nil otherwise.
func (s *Scheduler) AdmitSession(tenantName string) error {
	now := s.now()
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return ErrClosed
	}
	t := s.tenantLocked(tenantName)
	if ok, wait := t.takeToken(now); !ok {
		t.rateLimited++
		t.shed++
		s.shed++
		return &ShedError{Tenant: tenantName, Reason: ShedRateLimited, RetryAfter: clampRetry(wait)}
	}
	return nil
}

// CheckCapacity reports whether n more enqueues could overflow the
// tenant's or the global pending bound, as a *ShedError carrying the
// usual drain-rate Retry-After hint (nil when there is room). It is
// deliberately conservative — a batch whose items would all dedup onto
// cached results still counts n fresh slots — and consumes nothing, so
// a concurrent submitter can still race the reservation; the batch
// fan-out uses it to shed oversized batches before creating any job.
func (s *Scheduler) CheckCapacity(tenantName string, n int) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return ErrClosed
	}
	t := s.tenantLocked(tenantName)
	if len(t.queue)+n > s.maxQueue(t) {
		return &ShedError{Tenant: tenantName, Reason: ShedTenantQueueFull, RetryAfter: s.retryAfterLocked(len(t.queue) + n)}
	}
	if s.cfg.MaxQueue > 0 && s.queued+n > s.cfg.MaxQueue {
		return &ShedError{Tenant: tenantName, Reason: ShedGlobalQueueFull, RetryAfter: s.retryAfterLocked(s.queued + n)}
	}
	return nil
}

// dispatchLocked fills free run slots: while one is open, the eligible
// ticket with the highest tenant priority and, within the class, the
// smallest virtual start tag (ties by tenant name, then FIFO) is
// dispatched. Callers hold s.mu.
func (s *Scheduler) dispatchLocked() {
	for s.running < s.cfg.Slots {
		var best *tenant
		for _, t := range s.order { // sorted priority desc, name asc
			if !t.eligible() {
				continue
			}
			if best == nil {
				best = t
				continue
			}
			if t.cfg.Priority < best.cfg.Priority {
				break // order is priority-sorted; no better candidate follows
			}
			if t.queue[0].start < best.queue[0].start {
				best = t
			}
		}
		if best == nil {
			return
		}
		tk := best.queue[0]
		best.queue = best.queue[1:]
		s.queued--
		s.running++
		best.running++
		best.served++
		best.servedCost += tk.cost
		now := s.now()
		best.waitTotal += now.Sub(tk.enqueuedAt)
		if tk.start > s.vtime {
			s.vtime = tk.start
		}
		tk.state = stateDispatched
		tk.dispatched = now
		close(tk.ready)
	}
}

// removeLocked takes a still-queued ticket out of its tenant's queue.
func (s *Scheduler) removeLocked(tk *Ticket) {
	q := tk.tenant.queue
	for i, other := range q {
		if other == tk {
			tk.tenant.queue = append(q[:i], q[i+1:]...)
			s.queued--
			break
		}
	}
}

// finishLocked releases a dispatched ticket's slot, folds the
// completion into the drain-rate EWMA, and dispatches successors.
func (s *Scheduler) finishLocked(tk *Ticket) {
	tk.state = stateDone
	s.running--
	tk.tenant.running--
	now := s.now()
	if !s.lastDone.IsZero() {
		if dt := now.Sub(s.lastDone).Seconds(); dt > 0 {
			inst := 1 / dt
			if s.drainRate <= 0 {
				s.drainRate = inst
			} else {
				s.drainRate = 0.7*s.drainRate + 0.3*inst
			}
		}
	}
	s.lastDone = now
	s.dispatchLocked()
}

// Wait blocks until the ticket is dispatched into a run slot, the
// context is done, or the scheduler closes. A nil return means the
// caller holds a slot and must call Done when the job finishes; any
// error return means the ticket is fully released (a still-queued
// ticket is removed, a dispatch that raced the cancellation is undone)
// and Done must not be called.
func (t *Ticket) Wait(ctx context.Context) error {
	select {
	case <-t.ready:
	case <-ctx.Done():
	}
	s := t.s
	s.mu.Lock()
	defer s.mu.Unlock()
	switch t.state {
	case stateDispatched:
		if ctx.Err() != nil {
			// The dispatch raced the cancellation; give the slot back.
			s.finishLocked(t)
			return ctx.Err()
		}
		return nil
	case stateQueued:
		// Only a ctx fire gets here (ready is closed before leaving
		// the queued state on every other path).
		t.state = stateCanceled
		s.removeLocked(t)
		return ctx.Err()
	case stateCanceled:
		if t.err != nil {
			return t.err
		}
		return ErrClosed
	default: // stateDone: Wait after Done is a caller bug; report closed.
		return ErrClosed
	}
}

// Done releases the run slot of a dispatched ticket and dispatches
// successors. Idempotent; a no-op for tickets that never dispatched.
func (t *Ticket) Done() {
	s := t.s
	s.mu.Lock()
	defer s.mu.Unlock()
	if t.state == stateDispatched {
		s.finishLocked(t)
	}
}

// Dispatched reports whether the ticket currently holds a run slot.
func (t *Ticket) Dispatched() bool {
	t.s.mu.Lock()
	defer t.s.mu.Unlock()
	return t.state == stateDispatched
}

// Position returns the ticket's 1-based place in its tenant's pending
// queue, or 0 once dispatched (or otherwise out of the queue).
func (t *Ticket) Position() int {
	t.s.mu.Lock()
	defer t.s.mu.Unlock()
	if t.state != stateQueued {
		return 0
	}
	for i, other := range t.tenant.queue {
		if other == t {
			return i + 1
		}
	}
	return 0
}

// QueueWait returns how long the ticket sat queued before dispatch
// (zero until dispatched).
func (t *Ticket) QueueWait() time.Duration {
	t.s.mu.Lock()
	defer t.s.mu.Unlock()
	if t.dispatched.IsZero() {
		return 0
	}
	return t.dispatched.Sub(t.enqueuedAt)
}

// Tenant returns the ticket's tenant name.
func (t *Ticket) Tenant() string { return t.tenant.name }

// Close shuts the scheduler down: every still-queued ticket fails with
// ErrClosed (waking its Wait) and further Enqueues are rejected.
// Dispatched tickets are unaffected; their Done still releases
// normally. Safe to call more than once.
func (s *Scheduler) Close() {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return
	}
	s.closed = true
	for _, t := range s.order {
		for _, tk := range t.queue {
			tk.state = stateCanceled
			tk.err = ErrClosed
			close(tk.ready)
		}
		t.queue = nil
	}
	s.queued = 0
}

// TenantStats is one tenant's scheduler counters in a Stats snapshot.
type TenantStats struct {
	// Tenant is the tenant name; the default (empty-name) tenant
	// reports as "default".
	Tenant string `json:"tenant"`
	// Weight and Priority echo the effective policy.
	Weight   int `json:"weight"`
	Priority int `json:"priority,omitempty"`
	// Queued and Running are current occupancy; MaxQueue and
	// MaxConcurrent the effective bounds (0 = uncapped concurrency).
	Queued        int `json:"queued"`
	Running       int `json:"running"`
	MaxQueue      int `json:"maxQueue"`
	MaxConcurrent int `json:"maxConcurrent,omitempty"`
	// Served counts dispatched tickets and ServedCost their summed
	// cost; ServedSharePct is the tenant's share of all served cost —
	// the number the fairness grid pins against Weight/ΣWeights.
	Served         int64   `json:"served"`
	ServedCost     int64   `json:"servedCost"`
	ServedSharePct float64 `json:"servedSharePct"`
	// Shed counts admission rejections, RateLimited the subset shed by
	// the token bucket.
	Shed        int64 `json:"shed"`
	RateLimited int64 `json:"rateLimited,omitempty"`
	// AvgWaitMillis is the mean queue wait of dispatched tickets.
	AvgWaitMillis float64 `json:"avgWaitMillis"`
}

// Stats is a point-in-time snapshot of the scheduler, served by the
// service's metrics endpoints.
type Stats struct {
	// Slots, Running and Queued are global occupancy; MaxQueue the
	// global pending bound (0 = unbounded).
	Slots    int `json:"slots"`
	Running  int `json:"running"`
	Queued   int `json:"queued"`
	MaxQueue int `json:"maxQueue"`
	// Shed counts all admission rejections since start.
	Shed int64 `json:"shed"`
	// DrainPerSec is the completion-rate EWMA behind queue-full
	// Retry-After hints.
	DrainPerSec float64 `json:"drainPerSec"`
	// Tenants holds per-tenant counters, priority-then-name ordered.
	Tenants []TenantStats `json:"tenants"`
}

// Stats snapshots the scheduler.
func (s *Scheduler) Stats() Stats {
	s.mu.Lock()
	defer s.mu.Unlock()
	st := Stats{
		Slots:       s.cfg.Slots,
		Running:     s.running,
		Queued:      s.queued,
		Shed:        s.shed,
		DrainPerSec: s.drainRate,
	}
	if s.cfg.MaxQueue > 0 {
		st.MaxQueue = s.cfg.MaxQueue
	}
	var totalCost int64
	for _, t := range s.order {
		totalCost += t.servedCost
	}
	for _, t := range s.order {
		ts := TenantStats{
			Tenant:        t.name,
			Weight:        t.weight(),
			Priority:      t.cfg.Priority,
			Queued:        len(t.queue),
			Running:       t.running,
			MaxQueue:      s.maxQueue(t),
			MaxConcurrent: t.cfg.MaxConcurrent,
			Served:        t.served,
			ServedCost:    t.servedCost,
			Shed:          t.shed,
			RateLimited:   t.rateLimited,
		}
		if ts.Tenant == "" {
			ts.Tenant = "default"
		}
		if totalCost > 0 {
			ts.ServedSharePct = 100 * float64(t.servedCost) / float64(totalCost)
		}
		if t.served > 0 {
			ts.AvgWaitMillis = float64(t.waitTotal.Microseconds()) / 1000 / float64(t.served)
		}
		st.Tenants = append(st.Tenants, ts)
	}
	return st
}
