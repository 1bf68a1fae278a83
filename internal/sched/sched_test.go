package sched

import (
	"context"
	"errors"
	"testing"
	"time"
)

// fakeClock is a manually-advanced time source: the unit suite drives
// the scheduler entirely in virtual time, so dispatch order, rate
// limiting, and Retry-After hints are exact rather than timing-prone.
type fakeClock struct{ t time.Time }

func (c *fakeClock) Now() time.Time               { return c.t }
func (c *fakeClock) Advance(d time.Duration)      { c.t = c.t.Add(d) }
func newFakeClock() *fakeClock                    { return &fakeClock{t: time.Unix(1000, 0)} }
func clockConfig(c *fakeClock, cfg Config) Config { cfg.Clock = c.Now; return cfg }

// mustEnqueue enqueues or fails the test.
func mustEnqueue(t *testing.T, s *Scheduler, tenant string, cost int64) *Ticket {
	t.Helper()
	tk, err := s.Enqueue(tenant, cost)
	if err != nil {
		t.Fatalf("Enqueue(%q, %d): %v", tenant, cost, err)
	}
	return tk
}

// nextDispatched finds which of the still-pending tickets became
// dispatched after the last Done, asserting exactly one did.
func nextDispatched(t *testing.T, pending map[string][]*Ticket) string {
	t.Helper()
	var name string
	var tk *Ticket
	for tenant, q := range pending {
		if len(q) > 0 && q[0].Dispatched() {
			if tk != nil {
				t.Fatalf("two tickets dispatched at once (%s and %s)", name, tenant)
			}
			name, tk = tenant, q[0]
		}
	}
	if tk == nil {
		t.Fatal("no ticket dispatched")
	}
	pending[name] = pending[name][1:]
	tk.Done()
	return name
}

// TestSFQWeightedOrder pins the DRR/WFQ core deterministically: with
// one slot and uniform cost-1 jobs, backlogged tenants of weight 1 and
// 2 are served in a 1:2 interleave fixed by their virtual start tags.
func TestSFQWeightedOrder(t *testing.T) {
	s := New(clockConfig(newFakeClock(), Config{
		Slots:   1,
		Tenants: map[string]TenantConfig{"a": {Weight: 1}, "b": {Weight: 2}},
	}))
	// Occupy the slot so the backlog builds before any fair pick.
	gate := mustEnqueue(t, s, "gate", 1)
	if !gate.Dispatched() {
		t.Fatal("first ticket on an idle scheduler did not dispatch")
	}
	pending := map[string][]*Ticket{}
	for i := 0; i < 3; i++ {
		pending["a"] = append(pending["a"], mustEnqueue(t, s, "a", 1))
	}
	for i := 0; i < 6; i++ {
		pending["b"] = append(pending["b"], mustEnqueue(t, s, "b", 1))
	}
	gate.Done()

	// Tags: a = 0, 1, 2; b = 0, 0.5, 1, 1.5, 2, 2.5. Ties break by
	// name, so the exact order is a b b | a b b | a b b.
	want := []string{"a", "b", "b", "a", "b", "b", "a", "b", "b"}
	for i, w := range want {
		if got := nextDispatched(t, pending); got != w {
			t.Fatalf("dispatch %d: got tenant %s, want %s (want order %v)", i, got, w, want)
		}
	}
}

// TestSFQCostWeighting pins cost accounting: a tenant submitting
// cost-4 jobs against a same-weight tenant's cost-1 jobs gets one
// dispatch per four of the other's — fair shares are measured in cost,
// not job count.
func TestSFQCostWeighting(t *testing.T) {
	s := New(clockConfig(newFakeClock(), Config{Slots: 1}))
	gate := mustEnqueue(t, s, "gate", 1)
	pending := map[string][]*Ticket{}
	for i := 0; i < 2; i++ {
		pending["big"] = append(pending["big"], mustEnqueue(t, s, "big", 4))
	}
	for i := 0; i < 8; i++ {
		pending["small"] = append(pending["small"], mustEnqueue(t, s, "small", 1))
	}
	gate.Done()

	// Tags: big = 0, 4; small = 0, 1, ..., 7. "big" wins the tag-0 tie
	// by name, then four smalls run before big's second job (tag 4).
	want := []string{"big", "small", "small", "small", "small", "big", "small", "small", "small", "small"}
	for i, w := range want {
		if got := nextDispatched(t, pending); got != w {
			t.Fatalf("dispatch %d: got tenant %s, want %s", i, got, w)
		}
	}
}

// TestPriorityClasses: an eligible higher-priority tenant always
// dispatches before lower classes, regardless of virtual tags.
func TestPriorityClasses(t *testing.T) {
	s := New(clockConfig(newFakeClock(), Config{
		Slots:   1,
		Tenants: map[string]TenantConfig{"urgent": {Priority: 10}},
	}))
	gate := mustEnqueue(t, s, "gate", 1)
	pending := map[string][]*Ticket{}
	for i := 0; i < 4; i++ {
		pending["batch"] = append(pending["batch"], mustEnqueue(t, s, "batch", 1))
	}
	// The urgent tenant arrives last, with tags far behind batch's.
	pending["urgent"] = append(pending["urgent"], mustEnqueue(t, s, "urgent", 1), mustEnqueue(t, s, "urgent", 1))
	gate.Done()

	want := []string{"urgent", "urgent", "batch", "batch", "batch", "batch"}
	for i, w := range want {
		if got := nextDispatched(t, pending); got != w {
			t.Fatalf("dispatch %d: got tenant %s, want %s", i, got, w)
		}
	}
}

// TestTenantQuota: MaxConcurrent caps a tenant's simultaneous slots;
// the surplus slot goes to another tenant (or idles) even though the
// capped tenant has backlog.
func TestTenantQuota(t *testing.T) {
	s := New(clockConfig(newFakeClock(), Config{
		Slots:   2,
		Tenants: map[string]TenantConfig{"capped": {MaxConcurrent: 1}},
	}))
	c1 := mustEnqueue(t, s, "capped", 1)
	c2 := mustEnqueue(t, s, "capped", 1)
	if !c1.Dispatched() {
		t.Fatal("first capped ticket not dispatched")
	}
	if c2.Dispatched() {
		t.Fatal("quota violated: tenant holds two slots with MaxConcurrent 1")
	}
	other := mustEnqueue(t, s, "other", 1)
	if !other.Dispatched() {
		t.Fatal("free slot not granted to the uncapped tenant")
	}
	c1.Done()
	if !c2.Dispatched() {
		t.Fatal("capped tenant's next ticket not dispatched after its slot freed")
	}
	c2.Done()
	other.Done()
}

// TestQueueBounds pins both shed paths: the per-tenant bound, then the
// global bound, each with a positive clamped Retry-After, and
// CheckCapacity's report of both.
func TestQueueBounds(t *testing.T) {
	s := New(clockConfig(newFakeClock(), Config{
		Slots:    1,
		MaxQueue: 3,
		Tenants:  map[string]TenantConfig{"small": {MaxQueue: 1}},
	}))
	gate := mustEnqueue(t, s, "gate", 1) // occupies the slot
	defer gate.Done()

	mustEnqueue(t, s, "small", 1)
	_, err := s.Enqueue("small", 1)
	var shed *ShedError
	if !errors.As(err, &shed) || shed.Reason != ShedTenantQueueFull {
		t.Fatalf("tenant overflow: err %v, want ShedTenantQueueFull", err)
	}
	if shed.RetryAfter < time.Second || shed.RetryAfter > 5*time.Minute {
		t.Fatalf("tenant shed RetryAfter %v outside [1s, 5m]", shed.RetryAfter)
	}

	mustEnqueue(t, s, "other", 1)
	mustEnqueue(t, s, "other", 1) // global queue now 3/3
	_, err = s.Enqueue("third", 1)
	if !errors.As(err, &shed) || shed.Reason != ShedGlobalQueueFull {
		t.Fatalf("global overflow: err %v, want ShedGlobalQueueFull", err)
	}
	if got := s.Stats().Shed; got != 2 {
		t.Fatalf("stats shed = %d, want 2", got)
	}
	// CheckCapacity reports the same two bounds without enqueueing: the
	// tenant bound first, then the global one.
	if err := s.CheckCapacity("other", 1); !errors.As(err, &shed) || shed.Reason != ShedGlobalQueueFull {
		t.Fatalf("CheckCapacity with a full global queue: err %v, want ShedGlobalQueueFull", err)
	}
	if err := s.CheckCapacity("small", 1); !errors.As(err, &shed) || shed.Reason != ShedTenantQueueFull {
		t.Fatalf("CheckCapacity with a full tenant queue: err %v, want ShedTenantQueueFull", err)
	}
}

// TestRateLimit drives the token bucket in virtual time: burst 1 at
// 2/s admits one, sheds the next with a ~500ms (clamped to 1s) hint,
// and admits again after the refill.
func TestRateLimit(t *testing.T) {
	clock := newFakeClock()
	s := New(clockConfig(clock, Config{
		Slots:   4,
		Tenants: map[string]TenantConfig{"limited": {RatePerSec: 2, Burst: 1}},
	}))
	tk := mustEnqueue(t, s, "limited", 1)
	tk.Done()
	_, err := s.Enqueue("limited", 1)
	var shed *ShedError
	if !errors.As(err, &shed) || shed.Reason != ShedRateLimited {
		t.Fatalf("second admission in the same instant: err %v, want ShedRateLimited", err)
	}
	if shed.RetryAfter != time.Second { // 500ms shortfall, clamped up to 1s
		t.Fatalf("rate shed RetryAfter %v, want 1s", shed.RetryAfter)
	}
	clock.Advance(600 * time.Millisecond)
	tk2, err := s.Enqueue("limited", 1)
	if err != nil {
		t.Fatalf("post-refill admission: %v", err)
	}
	tk2.Done()
	// AdmitSession shares the same bucket.
	if err := s.AdmitSession("limited"); err == nil {
		t.Fatal("AdmitSession admitted with an empty bucket")
	}
	clock.Advance(time.Second)
	if err := s.AdmitSession("limited"); err != nil {
		t.Fatalf("AdmitSession after refill: %v", err)
	}
	st := s.Stats()
	for _, ts := range st.Tenants {
		if ts.Tenant == "limited" && ts.RateLimited != 2 {
			t.Fatalf("rateLimited = %d, want 2", ts.RateLimited)
		}
	}
}

// TestCancelWhileQueued: a context fire removes a queued ticket from
// its tenant's queue with no slot held and position accounting intact.
func TestCancelWhileQueued(t *testing.T) {
	s := New(clockConfig(newFakeClock(), Config{Slots: 1}))
	gate := mustEnqueue(t, s, "gate", 1)
	a := mustEnqueue(t, s, "t", 1)
	b := mustEnqueue(t, s, "t", 1)
	if a.Position() != 1 || b.Position() != 2 {
		t.Fatalf("positions %d, %d, want 1, 2", a.Position(), b.Position())
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if err := a.Wait(ctx); !errors.Is(err, context.Canceled) {
		t.Fatalf("Wait on canceled ctx: %v", err)
	}
	if b.Position() != 1 {
		t.Fatalf("position after cancel = %d, want 1", b.Position())
	}
	if got := s.Stats().Queued; got != 1 {
		t.Fatalf("queued after cancel = %d, want 1", got)
	}
	gate.Done()
	if err := b.Wait(context.Background()); err != nil {
		t.Fatalf("Wait: %v", err)
	}
	if w := b.QueueWait(); w < 0 {
		t.Fatalf("negative queue wait %v", w)
	}
	b.Done()
	if st := s.Stats(); st.Running != 0 || st.Queued != 0 {
		t.Fatalf("running %d queued %d after drain, want 0, 0", st.Running, st.Queued)
	}
}

// TestCloseFailsQueued: Close wakes every queued Wait with ErrClosed,
// rejects further enqueues, and leaves dispatched tickets to finish.
func TestCloseFailsQueued(t *testing.T) {
	s := New(clockConfig(newFakeClock(), Config{Slots: 1}))
	running := mustEnqueue(t, s, "t", 1)
	queued := mustEnqueue(t, s, "t", 1)
	s.Close()
	if err := queued.Wait(context.Background()); !errors.Is(err, ErrClosed) {
		t.Fatalf("queued Wait after Close: %v, want ErrClosed", err)
	}
	if _, err := s.Enqueue("t", 1); !errors.Is(err, ErrClosed) {
		t.Fatalf("Enqueue after Close: %v, want ErrClosed", err)
	}
	if !running.Dispatched() {
		t.Fatal("dispatched ticket lost its slot on Close")
	}
	running.Done()
	s.Close() // idempotent
}

// TestDrainRateRetryAfter: completions spaced 100ms apart in virtual
// time converge the drain EWMA near 10/s, so a queue-full shed with 3
// ahead suggests ~max(1s, 4/10s) = 1s and a deeper queue scales up.
func TestDrainRateRetryAfter(t *testing.T) {
	clock := newFakeClock()
	s := New(clockConfig(clock, Config{Slots: 1, MaxQueue: 40}))
	for i := 0; i < 20; i++ {
		tk := mustEnqueue(t, s, "t", 1)
		clock.Advance(100 * time.Millisecond)
		tk.Done()
	}
	st := s.Stats()
	if st.DrainPerSec < 5 || st.DrainPerSec > 15 {
		t.Fatalf("drain EWMA %.2f/s, want ~10/s", st.DrainPerSec)
	}
	gate := mustEnqueue(t, s, "t", 1)
	defer gate.Done()
	for i := 0; i < 40; i++ {
		mustEnqueue(t, s, "t", 1)
	}
	_, err := s.Enqueue("t", 1)
	var shed *ShedError
	if !errors.As(err, &shed) {
		t.Fatalf("overflow err %v", err)
	}
	// 40 ahead at ~10/s → ~4s, far under the 5m clamp.
	if shed.RetryAfter < 2*time.Second || shed.RetryAfter > 10*time.Second {
		t.Fatalf("RetryAfter %v, want ~4s from the drain rate", shed.RetryAfter)
	}
}

// TestStatsServedShare: the per-tenant served-share accounting that
// the fairness grid asserts against sums to 100 and tracks cost.
func TestStatsServedShare(t *testing.T) {
	s := New(clockConfig(newFakeClock(), Config{Slots: 1}))
	for i := 0; i < 3; i++ {
		mustEnqueue(t, s, "a", 1).Done()
	}
	mustEnqueue(t, s, "b", 3).Done()
	st := s.Stats()
	var sum float64
	for _, ts := range st.Tenants {
		sum += ts.ServedSharePct
		if ts.Tenant == "a" && (ts.Served != 3 || ts.ServedCost != 3 || ts.ServedSharePct != 50) {
			t.Fatalf("tenant a stats %+v, want served 3, cost 3, share 50", ts)
		}
		if ts.Tenant == "b" && (ts.Served != 1 || ts.ServedCost != 3) {
			t.Fatalf("tenant b stats %+v, want served 1, cost 3", ts)
		}
	}
	if sum < 99.9 || sum > 100.1 {
		t.Fatalf("served shares sum to %.2f, want 100", sum)
	}
}

// TestDefaultTenantTemplate: tenants without an explicit entry inherit
// DefaultTenant's policy; the empty name reports as "default".
func TestDefaultTenantTemplate(t *testing.T) {
	s := New(clockConfig(newFakeClock(), Config{
		Slots:         1,
		DefaultTenant: TenantConfig{Weight: 5, MaxQueue: 2},
	}))
	mustEnqueue(t, s, "", 1).Done()
	st := s.Stats()
	if len(st.Tenants) != 1 {
		t.Fatalf("tenant count %d, want 1", len(st.Tenants))
	}
	ts := st.Tenants[0]
	if ts.Tenant != "default" || ts.Weight != 5 || ts.MaxQueue != 2 {
		t.Fatalf("default tenant stats %+v, want name default, weight 5, maxQueue 2", ts)
	}
}
