package parallel

import (
	"context"
	"sync"
)

// Slots runs run(i, width) for i = 0..n-1 on a pool of
// min(slots, WorkerCount(workers)) goroutines, each of a fixed width:
// the worker total split evenly, the remainder on the first slots
// (8 tokens on 3 slots run at 3, 3 and 2), so the widths of concurrent
// calls never sum past the total. slots <= 0 means one slot per token.
// Items are handed out in index order over an unbuffered channel, and
// none once ctx has ended. Slots waits for the running calls and
// returns how many items it handed out: items started..n-1 never ran.
func Slots(ctx context.Context, n, workers, slots int, run func(i, width int)) (started int) {
	total := WorkerCount(workers)
	if slots <= 0 || slots > total {
		slots = total
	}
	next := make(chan int)
	var wg sync.WaitGroup
	for s := 0; s < slots; s++ {
		width := total / slots
		if s < total%slots {
			width++
		}
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
