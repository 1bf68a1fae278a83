// Package bitset provides dense bit sets used throughout the library for
// vertex marking: a plain single-threaded Set, a concurrency-safe Atomic
// set with compare-and-swap test-and-set semantics, whose Drain hands
// its words to the extraction frontier once per iteration and whose
// Word lets the frontier test 64 ready bits with one load, and an Epoch
// set that supports O(1) clearing for per-worker scratch.
package bitset

import (
	"math/bits"
	"sync/atomic"
)

const wordBits = 64

// Set is a fixed-size dense bit set. It is not safe for concurrent use.
type Set struct {
	words []uint64
	n     int
}

// New returns a Set able to hold n bits, all initially clear.
func New(n int) *Set {
	return &Set{words: make([]uint64, (n+wordBits-1)/wordBits), n: n}
}

// Len returns the capacity of the set in bits.
func (s *Set) Len() int { return s.n }

// Set sets bit i.
func (s *Set) Set(i int) { s.words[i/wordBits] |= 1 << (uint(i) % wordBits) }

// Clear clears bit i.
func (s *Set) Clear(i int) { s.words[i/wordBits] &^= 1 << (uint(i) % wordBits) }

// Test reports whether bit i is set.
func (s *Set) Test(i int) bool {
	return s.words[i/wordBits]&(1<<(uint(i)%wordBits)) != 0
}

// Count returns the number of set bits.
func (s *Set) Count() int {
	c := 0
	for _, w := range s.words {
		c += bits.OnesCount64(w)
	}
	return c
}

// Reset clears every bit.
func (s *Set) Reset() {
	for i := range s.words {
		s.words[i] = 0
	}
}

// Atomic is a fixed-size dense bit set safe for concurrent use.
type Atomic struct {
	words []atomic.Uint64
	n     int
}

// NewAtomic returns an Atomic set able to hold n bits, all clear.
func NewAtomic(n int) *Atomic {
	return &Atomic{words: make([]atomic.Uint64, (n+wordBits-1)/wordBits), n: n}
}

// Len returns the capacity of the set in bits.
func (a *Atomic) Len() int { return a.n }

// TestAndSet atomically sets bit i and reports whether it was previously
// clear (that is, whether this call was the one that set it). This is the
// fundamental "claim" operation used to insert a vertex into a queue at
// most once.
func (a *Atomic) TestAndSet(i int) bool {
	w := &a.words[i/wordBits]
	mask := uint64(1) << (uint(i) % wordBits)
	for {
		old := w.Load()
		if old&mask != 0 {
			return false
		}
		if w.CompareAndSwap(old, old|mask) {
			return true
		}
	}
}

// Test reports whether bit i is set.
func (a *Atomic) Test(i int) bool {
	return a.words[i/wordBits].Load()&(1<<(uint(i)%wordBits)) != 0
}

// Word atomically loads word i: bit b of the result is element 64*i+b.
func (a *Atomic) Word(i int) uint64 { return a.words[i].Load() }

// Set sets bit i unconditionally.
func (a *Atomic) Set(i int) {
	w := &a.words[i/wordBits]
	mask := uint64(1) << (uint(i) % wordBits)
	for {
		old := w.Load()
		if old&mask != 0 || w.CompareAndSwap(old, old|mask) {
			return
		}
	}
}

// Count returns the number of set bits. It is linearizable only when no
// concurrent mutation is in flight.
func (a *Atomic) Count() int {
	c := 0
	for i := range a.words {
		c += bits.OnesCount64(a.words[i].Load())
	}
	return c
}

// Reset clears every bit. Callers must ensure no concurrent access.
func (a *Atomic) Reset() {
	for i := range a.words {
		a.words[i].Store(0)
	}
}

// Drain clears the set and calls fn(i, w) for each word i that held
// set bits, in ascending i, with w the word's former contents: bit b of
// w is element 64*i+b. Each word is emptied by an atomic swap, so a
// concurrent Set is either reported in w or left in the set, never
// lost.
func (a *Atomic) Drain(fn func(i int, w uint64)) {
	for i := range a.words {
		if a.words[i].Load() != 0 {
			fn(i, a.words[i].Swap(0))
		}
	}
}

// Epoch is a single-owner membership set over [0, n) with O(1) clearing:
// a slot is a member exactly when its tag equals the current epoch, so
// Clear is one integer increment instead of an O(n) (or O(members))
// reset. It is intended for per-worker scratch on hot paths — the
// extraction kernel's hybrid subset test and the separator checks of
// incremental.Checker materialize neighborhoods into one of these and
// discard them per vertex or per edge without paying a reset loop.
type Epoch struct {
	tags []uint32
	cur  uint32
}

// NewEpoch returns an Epoch set over [0, n) with an empty membership.
func NewEpoch(n int) *Epoch {
	return &Epoch{tags: make([]uint32, n), cur: 1}
}

// Len returns the capacity of the set.
func (e *Epoch) Len() int { return len(e.tags) }

// Add makes i a member of the current epoch.
func (e *Epoch) Add(i int32) { e.tags[i] = e.cur }

// Contains reports whether i is a member in the current epoch.
func (e *Epoch) Contains(i int32) bool { return e.tags[i] == e.cur }

// Clear empties the set in O(1) by advancing the epoch. After 2^32-1
// epochs the tag space wraps; Clear then pays one full reset to keep
// correctness.
func (e *Epoch) Clear() {
	e.cur++
	if e.cur == 0 { // wrapped: stale tags could alias, so reset them
		for i := range e.tags {
			e.tags[i] = 0
		}
		e.cur = 1
	}
}
