package bitset

import (
	"slices"
	"sync"
	"testing"
	"testing/quick"
)

func TestSetBasic(t *testing.T) {
	s := New(200)
	if s.Len() != 200 {
		t.Fatalf("Len = %d", s.Len())
	}
	for _, i := range []int{0, 1, 63, 64, 65, 127, 128, 199} {
		if s.Test(i) {
			t.Fatalf("bit %d set initially", i)
		}
		s.Set(i)
		if !s.Test(i) {
			t.Fatalf("bit %d not set after Set", i)
		}
	}
	if s.Count() != 8 {
		t.Fatalf("Count = %d, want 8", s.Count())
	}
	s.Clear(64)
	if s.Test(64) {
		t.Fatal("bit 64 still set after Clear")
	}
	if s.Count() != 7 {
		t.Fatalf("Count = %d, want 7", s.Count())
	}
	s.Reset()
	if s.Count() != 0 {
		t.Fatalf("Count after Reset = %d", s.Count())
	}
}

func TestSetProperty(t *testing.T) {
	// Setting an arbitrary collection of bits yields exactly that
	// membership.
	f := func(raw []uint16) bool {
		s := New(1 << 16)
		want := map[int]bool{}
		for _, r := range raw {
			s.Set(int(r))
			want[int(r)] = true
		}
		for _, r := range raw {
			if !s.Test(int(r)) {
				return false
			}
		}
		return s.Count() == len(want)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestAtomicTestAndSet(t *testing.T) {
	a := NewAtomic(100)
	if !a.TestAndSet(5) {
		t.Fatal("first TestAndSet returned false")
	}
	if a.TestAndSet(5) {
		t.Fatal("second TestAndSet returned true")
	}
	if !a.Test(5) {
		t.Fatal("bit not set")
	}
	a.Set(6)
	if !a.Test(6) {
		t.Fatal("Set did not set")
	}
	if a.Count() != 2 {
		t.Fatalf("Count = %d", a.Count())
	}
	a.Reset()
	if a.Count() != 0 {
		t.Fatal("Reset did not clear")
	}
}

func TestAtomicDrain(t *testing.T) {
	a := NewAtomic(200)
	for _, i := range []int{0, 63, 64, 130, 199} {
		a.Set(i)
	}
	var got []int
	a.Drain(func(i int, w uint64) {
		if w == 0 {
			t.Fatalf("word %d reported empty", i)
		}
		for b := 0; b < 64; b++ {
			if w&(1<<b) != 0 {
				got = append(got, 64*i+b)
			}
		}
	})
	if want := []int{0, 63, 64, 130, 199}; !slices.Equal(got, want) {
		t.Fatalf("drained %v, want %v", got, want)
	}
	if a.Count() != 0 {
		t.Fatalf("Count = %d after Drain", a.Count())
	}
	a.Drain(func(i int, w uint64) { t.Fatalf("empty set reported word %d", i) })
}

func TestAtomicWord(t *testing.T) {
	a := NewAtomic(130)
	for _, i := range []int{1, 63, 64, 129} {
		a.Set(i)
	}
	for i, want := range []uint64{1<<1 | 1<<63, 1, 1 << 1} {
		if got := a.Word(i); got != want {
			t.Fatalf("Word(%d) = %#x, want %#x", i, got, want)
		}
	}
}

func TestAtomicConcurrentClaims(t *testing.T) {
	// Exactly one goroutine must win each bit.
	const n = 10000
	const workers = 8
	a := NewAtomic(n)
	wins := make([]int, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < n; i++ {
				if a.TestAndSet(i) {
					wins[w]++
				}
			}
		}(w)
	}
	wg.Wait()
	total := 0
	for _, c := range wins {
		total += c
	}
	if total != n {
		t.Fatalf("total wins %d, want %d", total, n)
	}
	if a.Count() != n {
		t.Fatalf("Count = %d, want %d", a.Count(), n)
	}
}

func TestEpochBasic(t *testing.T) {
	e := NewEpoch(64)
	if e.Len() != 64 {
		t.Fatalf("Len = %d", e.Len())
	}
	for _, i := range []int32{0, 7, 63} {
		if e.Contains(i) {
			t.Fatalf("member %d initially", i)
		}
		e.Add(i)
		if !e.Contains(i) {
			t.Fatalf("Contains(%d) false after Add", i)
		}
	}
	e.Clear()
	for i := int32(0); i < 64; i++ {
		if e.Contains(i) {
			t.Fatalf("membership of %d survived Clear", i)
		}
	}
	e.Add(5)
	if !e.Contains(5) {
		t.Fatal("Add after Clear failed")
	}
}

func TestEpochWrap(t *testing.T) {
	e := NewEpoch(8)
	e.Add(1)
	e.cur = ^uint32(0)
	e.Add(2)
	e.Clear() // wraps: must reset all tags
	for i := int32(0); i < 8; i++ {
		if e.Contains(i) {
			t.Fatalf("stale member %d after wraparound", i)
		}
	}
	e.Add(3)
	if !e.Contains(3) || e.Contains(1) || e.Contains(2) {
		t.Fatal("membership wrong after wraparound")
	}
}

func TestEpochManyClears(t *testing.T) {
	// Membership must track exactly the adds since the last Clear,
	// across many epochs.
	e := NewEpoch(16)
	for round := int32(0); round < 500; round++ {
		member := round % 16
		e.Add(member)
		for i := int32(0); i < 16; i++ {
			if e.Contains(i) != (i == member) {
				t.Fatalf("round %d: Contains(%d) = %v", round, i, e.Contains(i))
			}
		}
		e.Clear()
	}
}

func BenchmarkAtomicTestAndSet(b *testing.B) {
	a := NewAtomic(1 << 20)
	for i := 0; i < b.N; i++ {
		a.TestAndSet(i & (1<<20 - 1))
	}
}
