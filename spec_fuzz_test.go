package chordal_test

import (
	"encoding/json"
	"reflect"
	"testing"

	"chordal"
)

// FuzzSpecCanonical fuzzes the spec wire path the service and CLI
// trust: arbitrary bytes → JSON decode → Normalize/Validate →
// Canonical. The invariants: no panic anywhere on the path, and for
// every spec that normalizes, the canonical key is stable under
// re-encode (normalize → JSON → decode → normalize reproduces the
// identical spec and key — the cache-identity property the golden
// tests pin for hand-picked cases, here under adversarial inputs).
//
// The seed corpus under testdata/fuzz/FuzzSpecCanonical is generated
// from the canonical-golden specs; run the fuzzer with
//
//	go test -fuzz=FuzzSpecCanonical -fuzztime=30s -run '^$' .
func FuzzSpecCanonical(f *testing.F) {
	// Seeds mirror the golden specs plus shapes that exercise every
	// validation branch (conflicts, bad enums, versions, sources).
	seeds := []string{
		`{"source":"rmat-er:12"}`,
		`{"v":1,"source":" RMAT-ER:12:42:8 ","relabel":"BFS","engine":"parallel","variant":"unopt","schedule":"sync","workers":8,"repair":true,"verify":true,"output":"sub.bin"}`,
		`{"source":"gnm:1000:5000","engine":"serial","verify":true}`,
		`{"source":"rmat-g:10:7","partitions":8}`,
		`{"source":"rmat-g:10:7","shards":4,"shardStitchOnly":true,"verify":true}`,
		`{"source":"gnm:100:300","shardStitchOnly":true}`,
		`{"source":"upload:edges:8ba65ee1bbe8297e30cab4c5fc9b62a8caa0dbe7b89298edf1da2609beb24ae1","verify":true}`,
		`{"v":2,"source":"gnm:10:20"}`,
		`{"source":"gnm:10:20","engine":"warp"}`,
		`{"source":"gnm:10:20","partitions":2,"shards":4}`,
		`{"source":"ws:300:6:0.1:9","relabel":"degree","engine":"none"}`,
		`{"source":"rmat-er","workers":-3,"shards":-1}`,
		`{"source":"gnm:100:300","engine":"dearing","start":5,"verify":true}`,
		`{"source":"gnm:100:300","engine":"elimination","order":"natural"}`,
		`{"source":"ktree:200:4:13","engine":"elimination","order":" MinDeg "}`,
		`{"source":"gnm:100:300","engine":"parallel","order":"mindeg"}`,
		`{"source":"gnm:100:300","engine":"serial","start":3}`,
		`{"source":"gnm:100:300","engine":"elimination","order":"amd"}`,
		`{"source":"gnm:100:300","engine":"dearing","start":-2}`,
		`{"source":"gnm:100:300","grain":128,"degreeThreshold":16}`,
	}
	for _, s := range seeds {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, raw []byte) {
		var s chordal.Spec
		if err := json.Unmarshal(raw, &s); err != nil {
			return // not a spec; only the decoded path is under test
		}
		// Validate and Normalize must agree and never panic.
		n, err := s.Normalize()
		if verr := s.Validate(); (err == nil) != (verr == nil) {
			t.Fatalf("Normalize err %v but Validate err %v", err, verr)
		}
		if err != nil {
			return
		}
		canon, err := n.Canonical()
		if err != nil {
			t.Fatalf("normalized spec %+v failed Canonical: %v", n, err)
		}
		if canon == "" {
			t.Fatalf("normalized spec %+v has empty canonical key", n)
		}

		// Stability under re-encode: the normalized form is a fixed
		// point, and its JSON round trip preserves spec and key.
		n2, err := n.Normalize()
		if err != nil {
			t.Fatalf("re-normalize failed: %v", err)
		}
		if !reflect.DeepEqual(n, n2) {
			t.Fatalf("Normalize is not a fixed point:\n first %+v\n again %+v", n, n2)
		}
		blob, err := json.Marshal(n)
		if err != nil {
			t.Fatalf("marshal normalized: %v", err)
		}
		var back chordal.Spec
		if err := json.Unmarshal(blob, &back); err != nil {
			t.Fatalf("unmarshal %s: %v", blob, err)
		}
		back, err = back.Normalize()
		if err != nil {
			t.Fatalf("normalize decoded copy of %s: %v", blob, err)
		}
		canon2, err := back.Canonical()
		if err != nil {
			t.Fatalf("canonical of decoded copy: %v", err)
		}
		if canon != canon2 {
			t.Fatalf("canonical key drifted under re-encode:\n before %s\n after  %s", canon, canon2)
		}
	})
}
