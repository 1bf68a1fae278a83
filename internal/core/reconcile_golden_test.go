package core_test

import (
	"encoding/binary"
	"fmt"
	"hash/fnv"
	"testing"

	"chordal/internal/biogen"
	"chordal/internal/core"
	"chordal/internal/graph"
	"chordal/internal/rmat"
	"chordal/internal/shard"
	"chordal/internal/synth"
)

// edgeDigest is the FNV-64a digest of an edge list, each edge as two
// little-endian int32s in list order.
func edgeDigest(edges []core.Edge) string {
	h := fnv.New64a()
	var rec [8]byte
	for _, e := range edges {
		binary.LittleEndian.PutUint32(rec[0:4], uint32(e.U))
		binary.LittleEndian.PutUint32(rec[4:8], uint32(e.V))
		h.Write(rec[:])
	}
	return fmt.Sprintf("%016x", h.Sum64())
}

// TestReconcileGolden pins the decisions of the post-kernel passes —
// the spanning stitch, the exact border admission and the repair
// fixpoint — on four inputs: the digest of the edge list and every
// counter the passes report, for the parallel engine's kernel with
// repair, stitch and both, and for the sharded engine at 1, 2 and 4
// shards, stitch-only, default and with repair. The inputs are the
// source specs rmat-b:10, gse5140-crt:32, gnm:400:300:5 (over a
// hundred components) and ktree:400:8:3 (chordal, so every border edge
// is admissible). The rows were recorded while core and shard each had
// their own copy of the passes. The one deliberate change since is the
// counter split of a core run with both repair and stitch: the stitch
// runs first, so the bridges the repair scan used to admit count as
// stitched, and the edge set stays the same.
func TestReconcileGolden(t *testing.T) {
	inputs := []struct {
		name string
		load func() (*graph.Graph, error)
	}{
		{"rmat-b:10", func() (*graph.Graph, error) { return rmat.Generate(rmat.PresetParams(rmat.B, 10, 42)) }},
		{"gse5140-crt:32", func() (*graph.Graph, error) {
			return biogen.Generate(biogen.PresetParams(biogen.GSE5140CRT, 32, 42))
		}},
		{"gnm:400:300:5", func() (*graph.Graph, error) { return synth.GNM(400, 300, 5, 1) }},
		{"ktree:400:8:3", func() (*graph.Graph, error) { return synth.KTree(400, 8, 3, 1) }},
	}
	want := map[string]string{
		"rmat-b:10 parallel repair": "edges=1919 4d046190c648f7e2 repaired=214 stitched=0",
		"rmat-b:10 parallel stitch": "edges=1730 954b707077dbf310 repaired=0 stitched=25",
		// Recorded as repaired=214 stitched=0 while the repair scan ran first.
		"rmat-b:10 parallel repair+stitch": "edges=1919 4d046190c648f7e2 repaired=189 stitched=25",
		"rmat-b:10 shards=1 stitch-only":   "edges=1730 954b707077dbf310 stitched=25 borderTotal=0 borderBridges=0 borderAdmitted=0 repaired=0",
		"rmat-b:10 shards=1 default":       "edges=1730 954b707077dbf310 stitched=25 borderTotal=0 borderBridges=0 borderAdmitted=0 repaired=0",
		"rmat-b:10 shards=1 repair":        "edges=1919 4d046190c648f7e2 stitched=25 borderTotal=0 borderBridges=0 borderAdmitted=0 repaired=189",
		"rmat-b:10 shards=2 stitch-only":   "edges=1578 ae616fff493e54d1 stitched=118 borderTotal=2205 borderBridges=106 borderAdmitted=0 repaired=0",
		"rmat-b:10 shards=2 default":       "edges=1695 4718a6c0050386b9 stitched=118 borderTotal=2205 borderBridges=106 borderAdmitted=117 repaired=0",
		"rmat-b:10 shards=2 repair":        "edges=1841 b9cc3ecf2a5bd6c5 stitched=118 borderTotal=2205 borderBridges=106 borderAdmitted=117 repaired=146",
		"rmat-b:10 shards=4 stitch-only":   "edges=1460 a5694aebec5f7e0d stitched=223 borderTotal=3727 borderBridges=219 borderAdmitted=0 repaired=0",
		"rmat-b:10 shards=4 default":       "edges=1688 897066f86a06a2f0 stitched=223 borderTotal=3727 borderBridges=219 borderAdmitted=228 repaired=0",
		"rmat-b:10 shards=4 repair":        "edges=1838 32769f8eed514125 stitched=223 borderTotal=3727 borderBridges=219 borderAdmitted=228 repaired=150",
		"gse5140-crt:32 parallel repair":   "edges=3724 e37b34316c6cdb4e repaired=870 stitched=0",
		"gse5140-crt:32 parallel stitch":   "edges=2897 f2210bbb27b6d2eb repaired=0 stitched=43",
		// Recorded as repaired=870 stitched=0 while the repair scan ran first.
		"gse5140-crt:32 parallel repair+stitch": "edges=3724 e37b34316c6cdb4e repaired=827 stitched=43",
		"gse5140-crt:32 shards=1 stitch-only":   "edges=2897 f2210bbb27b6d2eb stitched=43 borderTotal=0 borderBridges=0 borderAdmitted=0 repaired=0",
		"gse5140-crt:32 shards=1 default":       "edges=2897 f2210bbb27b6d2eb stitched=43 borderTotal=0 borderBridges=0 borderAdmitted=0 repaired=0",
		"gse5140-crt:32 shards=1 repair":        "edges=3724 e37b34316c6cdb4e stitched=43 borderTotal=0 borderBridges=0 borderAdmitted=0 repaired=827",
		"gse5140-crt:32 shards=2 stitch-only":   "edges=2427 7d3cf1ac67ef6fd3 stitched=85 borderTotal=11376 borderBridges=56 borderAdmitted=0 repaired=0",
		"gse5140-crt:32 shards=2 default":       "edges=2750 5754ac1038b6e77b stitched=85 borderTotal=11376 borderBridges=56 borderAdmitted=323 repaired=0",
		"gse5140-crt:32 shards=2 repair":        "edges=3264 24afc83b9ff47ac3 stitched=85 borderTotal=11376 borderBridges=56 borderAdmitted=323 repaired=514",
		"gse5140-crt:32 shards=4 stitch-only":   "edges=1986 ff5f2511c37d5fd4 stitched=187 borderTotal=17029 borderBridges=162 borderAdmitted=0 repaired=0",
		"gse5140-crt:32 shards=4 default":       "edges=2443 658cad778efd43ba stitched=187 borderTotal=17029 borderBridges=162 borderAdmitted=457 repaired=0",
		"gse5140-crt:32 shards=4 repair":        "edges=2814 2485d46a28796135 stitched=187 borderTotal=17029 borderBridges=162 borderAdmitted=457 repaired=371",
		"gnm:400:300:5 parallel repair":         "edges=287 9e71fb868f6df508 repaired=91 stitched=0",
		"gnm:400:300:5 parallel stitch":         "edges=287 9e71fb868f6df508 repaired=0 stitched=91",
		// Recorded as repaired=91 stitched=0 while the repair scan ran first.
		"gnm:400:300:5 parallel repair+stitch": "edges=287 9e71fb868f6df508 repaired=0 stitched=91",
		"gnm:400:300:5 shards=1 stitch-only":   "edges=287 9e71fb868f6df508 stitched=91 borderTotal=0 borderBridges=0 borderAdmitted=0 repaired=0",
		"gnm:400:300:5 shards=1 default":       "edges=287 9e71fb868f6df508 stitched=91 borderTotal=0 borderBridges=0 borderAdmitted=0 repaired=0",
		"gnm:400:300:5 shards=1 repair":        "edges=287 9e71fb868f6df508 stitched=91 borderTotal=0 borderBridges=0 borderAdmitted=0 repaired=0",
		"gnm:400:300:5 shards=2 stitch-only":   "edges=287 751d71bbf5aa990f stitched=162 borderTotal=142 borderBridges=136 borderAdmitted=0 repaired=0",
		"gnm:400:300:5 shards=2 default":       "edges=287 751d71bbf5aa990f stitched=162 borderTotal=142 borderBridges=136 borderAdmitted=0 repaired=0",
		"gnm:400:300:5 shards=2 repair":        "edges=287 751d71bbf5aa990f stitched=162 borderTotal=142 borderBridges=136 borderAdmitted=0 repaired=0",
		"gnm:400:300:5 shards=4 stitch-only":   "edges=287 0d74403906a9b9da stitched=215 borderTotal=220 borderBridges=208 borderAdmitted=0 repaired=0",
		"gnm:400:300:5 shards=4 default":       "edges=287 0d74403906a9b9da stitched=215 borderTotal=220 borderBridges=208 borderAdmitted=0 repaired=0",
		"gnm:400:300:5 shards=4 repair":        "edges=287 0d74403906a9b9da stitched=215 borderTotal=220 borderBridges=208 borderAdmitted=0 repaired=0",
		"ktree:400:8:3 parallel repair":        "edges=3164 e26e8246b61e7232 repaired=0 stitched=0",
		"ktree:400:8:3 parallel stitch":        "edges=3164 e26e8246b61e7232 repaired=0 stitched=0",
		"ktree:400:8:3 parallel repair+stitch": "edges=3164 e26e8246b61e7232 repaired=0 stitched=0",
		"ktree:400:8:3 shards=1 stitch-only":   "edges=3164 e26e8246b61e7232 stitched=0 borderTotal=0 borderBridges=0 borderAdmitted=0 repaired=0",
		"ktree:400:8:3 shards=1 default":       "edges=3164 e26e8246b61e7232 stitched=0 borderTotal=0 borderBridges=0 borderAdmitted=0 repaired=0",
		"ktree:400:8:3 shards=1 repair":        "edges=3164 e26e8246b61e7232 stitched=0 borderTotal=0 borderBridges=0 borderAdmitted=0 repaired=0",
		"ktree:400:8:3 shards=2 stitch-only":   "edges=1786 1d4970e2a6fbb201 stitched=141 borderTotal=1519 borderBridges=141 borderAdmitted=0 repaired=0",
		"ktree:400:8:3 shards=2 default":       "edges=3164 e26e8246b61e7232 stitched=141 borderTotal=1519 borderBridges=141 borderAdmitted=1378 repaired=0",
		"ktree:400:8:3 shards=2 repair":        "edges=3164 e26e8246b61e7232 stitched=141 borderTotal=1519 borderBridges=141 borderAdmitted=1378 repaired=0",
		"ktree:400:8:3 shards=4 stitch-only":   "edges=1079 1da15dc5e6149a6d stitched=233 borderTotal=2318 borderBridges=233 borderAdmitted=0 repaired=0",
		"ktree:400:8:3 shards=4 default":       "edges=3164 e26e8246b61e7232 stitched=233 borderTotal=2318 borderBridges=233 borderAdmitted=2085 repaired=0",
		"ktree:400:8:3 shards=4 repair":        "edges=3164 e26e8246b61e7232 stitched=233 borderTotal=2318 borderBridges=233 borderAdmitted=2085 repaired=0",
	}
	got := map[string]string{}
	for _, in := range inputs {
		g, err := in.load()
		if err != nil {
			t.Fatal(err)
		}
		for _, c := range []struct {
			name           string
			repair, stitch bool
		}{{"repair", true, false}, {"stitch", false, true}, {"repair+stitch", true, true}} {
			res, err := core.Extract(g, core.Options{Workers: 2, RepairMaximality: c.repair, StitchComponents: c.stitch})
			if err != nil {
				t.Fatal(err)
			}
			got[in.name+" parallel "+c.name] = fmt.Sprintf("edges=%d %s repaired=%d stitched=%d",
				len(res.Edges), edgeDigest(res.Edges), res.RepairedEdges, res.StitchedEdges)
		}
		for _, shards := range []int{1, 2, 4} {
			for _, c := range []struct {
				name               string
				stitchOnly, repair bool
			}{{"stitch-only", true, false}, {"default", false, false}, {"repair", false, true}} {
				res, err := shard.Extract(g, shard.Options{
					Shards: shards, Core: core.Options{Workers: 2}, StitchOnly: c.stitchOnly, Repair: c.repair,
				})
				if err != nil {
					t.Fatal(err)
				}
				if !res.Chordal {
					t.Fatalf("%s shards=%d %s: merged subgraph not chordal", in.name, shards, c.name)
				}
				got[fmt.Sprintf("%s shards=%d %s", in.name, shards, c.name)] = fmt.Sprintf("edges=%d %s stitched=%d borderTotal=%d borderBridges=%d borderAdmitted=%d repaired=%d",
					len(res.Edges), edgeDigest(res.Edges), res.StitchedEdges, res.BorderTotal,
					res.BorderBridges, res.BorderAdmitted, res.RepairedEdges)
			}
		}
	}
	if len(got) != len(want) {
		t.Fatalf("%d rows, want %d", len(got), len(want))
	}
	for key, w := range want {
		if got[key] != w {
			t.Errorf("%s: got %q, want %q", key, got[key], w)
		}
	}
}
