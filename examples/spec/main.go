// Spec demonstrates the declarative run description shared by the
// library, the CLI and the HTTP service: build one chordal.Spec, watch
// its unified event stream, read its canonical cache identity, round
// trip it through JSON, and swap the extraction engine by name.
//
// Run with:
//
//	go run ./examples/spec
package main

import (
	"context"
	"encoding/json"
	"fmt"
	"log"

	"chordal"
)

func main() {
	// One declarative description of the whole run: acquire a skewed
	// R-MAT graph, extract with the sharded engine, verify the result.
	spec := chordal.Spec{
		Source:       "rmat-g:12:7",
		EngineConfig: chordal.EngineConfig{Shards: 4},
		Verify:       true,
	}

	// Canonical() is the run's identity: the exact string the service
	// uses as its cache and dedup key. Any spelling of the same run —
	// different JSON key order, omitted defaults, upper-case source —
	// canonicalizes to the same line.
	canon, err := spec.Canonical()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("canonical identity:\n  %s\n\n", canon)

	respelled := chordal.Spec{
		Source: " RMAT-G:12:7:8 ",
		Engine: "sharded",
		EngineConfig: chordal.EngineConfig{
			Shards:   4,
			Variant:  "auto",
			Schedule: "dataflow",
			Workers:  2, // execution width is not identity
		},
		Verify: true,
	}
	if c2, _ := respelled.Canonical(); c2 != canon {
		log.Fatalf("respelled spec diverged: %s", c2)
	}
	fmt.Println("respelled spec (upper-case source, spelled-out defaults,")
	fmt.Println("explicit workers) canonicalizes identically.")

	// Specs round trip through JSON — this is exactly what travels in a
	// POST /v1/jobs body or sits in a config file.
	norm, err := spec.Normalize()
	if err != nil {
		log.Fatal(err)
	}
	blob, _ := json.MarshalIndent(norm, "  ", "  ")
	fmt.Printf("\nas JSON:\n  %s\n\n", blob)

	// Run it with an Observer on the unified event stream: stage
	// begin/end with timing, per-shard iterations, the verify outcome.
	events := 0
	res, err := chordal.Runner{Observer: func(ev chordal.Event) {
		events++
		switch ev.Type {
		case chordal.EventStageBegin:
			fmt.Printf("  -> %s\n", ev.Stage)
		case chordal.EventStageEnd:
			fmt.Printf("  <- %-8s %8.2fms\n", ev.Stage, ev.Millis)
		case chordal.EventIteration:
			if ev.Shard != nil {
				fmt.Printf("     shard %d iter %d: %d accepted\n", *ev.Shard, ev.Index, ev.EdgesAccepted)
			}
		case chordal.EventVerify:
			fmt.Printf("     chordal: %v\n", *ev.Chordal)
		}
	}}.Run(context.Background(), spec)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\n%d events; %d of %d edges kept across %d shards\n",
		events, res.Subgraph.NumEdges(), res.Input.NumEdges(), res.Shard.Shards)

	// Engines are a registry keyed by name: the same spec runs the
	// paper's serial baseline, the dearing engine, by changing one field
	// (conflicting parameters, like shards on the dearing engine, are
	// validation errors; "serial" is accepted as an alias of dearing).
	serial := spec
	serial.Engine = chordal.EngineDearing
	serial.Shards = 0
	sres, err := serial.Run()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nregistered engines: %v\n", chordal.EngineNames())
	fmt.Printf("serial baseline (dearing) on the same source: %d edges in %s\n",
		sres.Subgraph.NumEdges(), sres.SerialDuration)

	if err := (chordal.Spec{Source: "rmat-g:12:7", Engine: "serial",
		EngineConfig: chordal.EngineConfig{Shards: 4}}).Validate(); err != nil {
		fmt.Printf("conflicting selection rejected: %v\n", err)
	}
}
