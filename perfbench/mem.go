package main

import (
	"bytes"
	"os"
	"strconv"
	"sync"
	"time"
)

// memSampler samples the process's resident set size every few
// milliseconds and keeps the peak since the last take, so each
// operation's peak can be reported instead of one extreme for the run.
type memSampler struct {
	mu   sync.Mutex
	peak int64
	stop chan struct{}
	done chan struct{}
}

// memEvery is the sampling period.
const memEvery = 2 * time.Millisecond

// startMemSampler starts sampling; close stops it.
func startMemSampler() *memSampler {
	m := &memSampler{peak: rssBytes(), stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(m.done)
		t := time.NewTicker(memEvery)
		defer t.Stop()
		for {
			select {
			case <-m.stop:
				return
			case <-t.C:
				r := rssBytes()
				m.mu.Lock()
				m.peak = max(m.peak, r)
				m.mu.Unlock()
			}
		}
	}()
	return m
}

// take returns the peak resident size, in MiB, since the previous take
// and starts the next interval from the current size.
func (m *memSampler) take() float64 {
	r := rssBytes()
	m.mu.Lock()
	p := max(m.peak, r)
	m.peak = r
	m.mu.Unlock()
	return float64(p) / (1 << 20)
}

// close stops the sampler and waits for it to exit.
func (m *memSampler) close() {
	close(m.stop)
	<-m.done
}

// rssBytes is the process's current resident set size, read from
// /proc/self/statm (0 where that file does not exist).
func rssBytes() int64 {
	b, err := os.ReadFile("/proc/self/statm")
	if err != nil {
		return 0
	}
	fields := bytes.Fields(b)
	if len(fields) < 2 {
		return 0
	}
	pages, err := strconv.ParseInt(string(fields[1]), 10, 64)
	if err != nil {
		return 0
	}
	return pages * int64(os.Getpagesize())
}
