package parallel

import (
	"context"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// TestPoolRunsEveryAcceptedTask checks the core contract of Slots: on a
// live context every item is handed out and runs exactly once, with a
// width inside the budget.
func TestPoolRunsEveryAcceptedTask(t *testing.T) {
	const n = 64
	var ran [n]atomic.Int32
	started := Slots(context.Background(), n, 4, 2, func(i, width int) {
		if width < 1 || width > 4 {
			t.Errorf("item %d width %d outside budget of 4", i, width)
		}
		ran[i].Add(1)
	})
	if started != n {
		t.Fatalf("Slots handed out %d items, want %d", started, n)
	}
	for i := range ran {
		if got := ran[i].Load(); got != 1 {
			t.Errorf("item %d ran %d times, want 1", i, got)
		}
	}
}

// TestPoolStressConcurrentBatches drives the usage shape of
// chordal.Batch under -race: concurrent Slots calls, each with its own
// budget. Within a call the slot widths sum exactly to the budget, so
// the widths of its running items never oversubscribe it.
func TestPoolStressConcurrentBatches(t *testing.T) {
	var outer sync.WaitGroup
	for batch := 0; batch < 8; batch++ {
		outer.Add(1)
		go func() {
			defer outer.Done()
			total, slots := 1+batch%4, 1+batch%3
			var inUse, peak atomic.Int64
			var ran atomic.Int64
			started := Slots(context.Background(), 32, total, slots, func(_, width int) {
				cur := inUse.Add(int64(width))
				for {
					pk := peak.Load()
					if cur <= pk || peak.CompareAndSwap(pk, cur) {
						break
					}
				}
				ran.Add(1)
				inUse.Add(-int64(width))
			})
			if started != 32 || ran.Load() != 32 {
				t.Errorf("budget %d, %d slots: handed out %d items and ran %d, want 32", total, slots, started, ran.Load())
			}
			if pk := peak.Load(); pk > int64(total) {
				t.Errorf("peak concurrent width %d exceeds the %d-token budget", pk, total)
			}
		}()
	}
	outer.Wait()
}

// TestPoolClampsSlots pins the slot count and the split: more slots
// than budget tokens are clamped to one per token, slots <= 0 means one
// per token, and otherwise the budget is split evenly with the
// remainder on the first slots. A gate holds the first wave of items
// until every slot is busy, so the wave's widths are the split.
func TestPoolClampsSlots(t *testing.T) {
	for _, tc := range []struct {
		workers, slots int
		widths         []int // the split, ascending
	}{
		{2, 16, []int{1, 1}},
		{2, 0, []int{1, 1}},
		{8, 3, []int{2, 3, 3}},
		{5, 2, []int{2, 3}},
	} {
		var mu sync.Mutex
		var wave []int
		gate := make(chan struct{})
		inflight, peak := 0, 0
		Slots(context.Background(), 12, tc.workers, tc.slots, func(_, width int) {
			mu.Lock()
			inflight++
			peak = max(peak, inflight)
			if len(wave) < len(tc.widths) {
				wave = append(wave, width)
				if len(wave) == len(tc.widths) {
					close(gate)
				}
			}
			mu.Unlock()
			select {
			case <-gate:
			case <-time.After(10 * time.Second):
				t.Errorf("workers=%d slots=%d: never %d items in flight at once", tc.workers, tc.slots, len(tc.widths))
			}
			mu.Lock()
			inflight--
			mu.Unlock()
		})
		slices.Sort(wave)
		if !slices.Equal(wave, tc.widths) {
			t.Errorf("workers=%d slots=%d: first wave ran at widths %v, want %v", tc.workers, tc.slots, wave, tc.widths)
		}
		if peak != len(tc.widths) {
			t.Errorf("workers=%d slots=%d: peak %d items in flight, want %d", tc.workers, tc.slots, peak, len(tc.widths))
		}
	}
}

// TestPoolCancelDrains checks the cancellation contract: a dead
// context hands out nothing, and canceling mid-run stops the hand-out,
// lets running items finish, and reports exactly the items that ran —
// no hang, no item run twice or after its refusal.
func TestPoolCancelDrains(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if got := Slots(ctx, 8, 2, 2, func(i, _ int) { t.Errorf("item %d ran on a dead context", i) }); got != 0 {
		t.Fatalf("dead context: Slots handed out %d items, want 0", got)
	}

	const n = 100
	ctx, cancel = context.WithCancel(context.Background())
	defer cancel()
	var ran, finished [n]atomic.Int32
	done := make(chan int)
	go func() {
		done <- Slots(ctx, n, 2, 2, func(i, _ int) {
			ran[i].Add(1)
			if i == 5 {
				cancel()
			}
			time.Sleep(time.Millisecond) // a running item outlives the cancel
			finished[i].Add(1)
		})
	}()
	var started int
	select {
	case started = <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("Slots did not drain a canceled context")
	}
	if started <= 5 || started >= n {
		t.Fatalf("Slots handed out %d items, want more than 5 and fewer than %d", started, n)
	}
	for i := range ran {
		want := int32(0)
		if i < started {
			want = 1
		}
		if r, f := ran[i].Load(), finished[i].Load(); r != want || f != want {
			t.Errorf("item %d ran %d and finished %d times, want %d", i, r, f, want)
		}
	}
}
