package parallel

import (
	"context"
	"sync"
)

// SlotWidths splits total worker tokens over slots fixed-width slots,
// for 1 <= slots <= total: evenly, the remainder on the first slots
// (8 tokens on 3 slots give 3, 3 and 2), so the widths sum to total
// and the last slot is the narrowest. Slots and the service's job
// slots both take their widths from it.
func SlotWidths(total, slots int) []int {
	widths := make([]int, slots)
	for s := range widths {
		widths[s] = total / slots
		if s < total%slots {
			widths[s]++
		}
	}
	return widths
}

// Slots runs run(i, width) for i = 0..n-1 on a pool of
// min(slots, WorkerCount(workers)) goroutines, each of a fixed width
// from SlotWidths, so the widths of concurrent calls never sum past
// the total. slots <= 0 means one slot per token. Items are handed out
// in index order over an unbuffered channel, and none once ctx has
// ended. Slots waits for the running calls and returns how many items
// it handed out: items started..n-1 never ran.
func Slots(ctx context.Context, n, workers, slots int, run func(i, width int)) (started int) {
	total := WorkerCount(workers)
	if slots <= 0 || slots > total {
		slots = total
	}
	next := make(chan int)
	var wg sync.WaitGroup
	for _, width := range SlotWidths(total, slots) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				run(i, width)
			}
		}()
	}
	for started < n && ctx.Err() == nil {
		select {
		case next <- started:
			started++
		case <-ctx.Done():
		}
	}
	close(next)
	wg.Wait()
	return started
}
