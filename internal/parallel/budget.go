package parallel

import (
	"context"
	"sync"
)

// Budget is a shared pool of worker tokens that divides the machine's
// effective parallelism among concurrent jobs. Each job leases as many
// tokens as are free (up to its request) before running and releases
// them when done, so N simultaneous extraction kernels share the cores
// instead of each spawning a full-width worker set and oversubscribing
// the machine GOMAXPROCS-fold. The service layer leases from one
// process-wide Budget per extraction job, requesting each job's fair
// share of the pool by default.
//
// Lease never grants zero: when the pool is empty it blocks until a
// token frees up, which bounds admitted concurrency to the pool size
// without starving any job.
type Budget struct {
	mu      sync.Mutex
	cond    *sync.Cond
	total   int
	avail   int
	waiters int
}

// NewBudget creates a Budget with the given number of worker tokens;
// total <= 0 selects the effective parallelism (GOMAXPROCS clamped to
// the physical CPU count).
func NewBudget(total int) *Budget {
	if total <= 0 {
		total = maxParallelism()
	}
	b := &Budget{total: total, avail: total}
	b.cond = sync.NewCond(&b.mu)
	return b
}

// Total returns the pool size.
func (b *Budget) Total() int { return b.total }

// Available returns the number of currently unleased tokens — a
// point-in-time snapshot for tests and health reporting, not a
// reservation (another caller may lease between the read and any use).
func (b *Budget) Available() int {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.avail
}

// Waiters returns how many Lease/LeaseContext calls are currently
// blocked on an empty pool — a point-in-time snapshot for health
// reporting, like Available.
func (b *Budget) Waiters() int {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.waiters
}

// Lease takes up to want tokens from the pool and returns the number
// granted, always at least 1: if the pool is empty it blocks until a
// token is released. want <= 0 requests the full pool. The caller must
// Release exactly the granted count when its work completes.
func (b *Budget) Lease(want int) int {
	granted, _ := b.lease(context.Background(), want)
	return granted
}

// LeaseContext is Lease under a context: a caller blocked on an empty
// pool is released when ctx is done, receiving 0 tokens and ctx.Err().
// A canceled job must never wait out another job's lease, and a grant
// of 0 needs no Release — this is how the service's cancel endpoint
// frees a queued job without leaking budget tokens.
func (b *Budget) LeaseContext(ctx context.Context, want int) (int, error) {
	return b.lease(ctx, want)
}

func (b *Budget) lease(ctx context.Context, want int) (int, error) {
	if want <= 0 || want > b.total {
		want = b.total
	}
	// A cond has no channel to select on; a watcher goroutine turns
	// ctx cancellation into a broadcast so the wait loop can re-check.
	// The watcher exits as soon as the lease resolves.
	done := make(chan struct{})
	defer close(done)
	if ctx.Done() != nil {
		go func() {
			select {
			case <-ctx.Done():
				// Taking the lock before broadcasting closes the race
				// with a waiter between its ctx check and cond.Wait:
				// Wait releases the lock atomically, so once this lock
				// is acquired the waiter is either not yet in the loop
				// (its next ctx check fails) or parked (the broadcast
				// wakes it).
				b.mu.Lock()
				b.mu.Unlock()
				b.cond.Broadcast()
			case <-done:
			}
		}()
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	for b.avail == 0 {
		if err := ctx.Err(); err != nil {
			return 0, err
		}
		b.waiters++
		b.cond.Wait()
		b.waiters--
	}
	if err := ctx.Err(); err != nil {
		return 0, err
	}
	granted := want
	if granted > b.avail {
		granted = b.avail
	}
	b.avail -= granted
	return granted, nil
}

// Release returns n previously leased tokens to the pool and wakes
// blocked leases.
func (b *Budget) Release(n int) {
	if n <= 0 {
		return
	}
	b.mu.Lock()
	b.avail += n
	if b.avail > b.total {
		panic("parallel: Budget.Release of tokens never leased")
	}
	b.mu.Unlock()
	b.cond.Broadcast()
}
