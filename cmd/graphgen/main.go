// Command graphgen generates the test-suite graphs of the paper and
// writes them to disk through the chordal.Spec generate→write path
// (engine "none": acquire and write, no extraction).
//
// Usage:
//
//	graphgen -spec rmat-er:16:42 -out er16.bin
//	graphgen -spec gse5140-unt:8 -out bio.txt
//	graphgen -spec gnm:100000:800000:7 -out gnm.bin
//
// -spec is any generator spec of chordal.SourceSpecs. The output format
// follows the file extension in any case: .bin (binary CSR), .mtx
// (Matrix Market), anything else a text edge list.
package main

import (
	"flag"
	"fmt"
	"os"

	"chordal"
)

func main() {
	var (
		spec  = flag.String("spec", "", "generator spec; required; one of:\n"+chordal.SourceSpecs)
		out   = flag.String("out", "", "output path (.bin/.mtx/.txt); required")
		stats = flag.Bool("stats", true, "print Table-I statistics of the generated graph")
	)
	flag.Parse()
	if *spec == "" || *out == "" {
		fmt.Fprintln(os.Stderr, "graphgen: -spec and -out are required")
		flag.Usage()
		os.Exit(2)
	}
	res, err := chordal.Spec{Source: *spec, Engine: chordal.EngineNone, Output: *out}.Run()
	if err != nil {
		fmt.Fprintln(os.Stderr, "graphgen:", err)
		os.Exit(1)
	}
	if *stats {
		fmt.Printf("%s: %s\n", *out, res.InputStats)
	}
}
