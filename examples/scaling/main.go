// Scaling runs the strong-scaling experiment of the paper's Figures 4-6
// on the host machine: the same extraction at 1, 2, 4, ... workers for
// both the optimized and unoptimized variants, next to the Cray XMT
// model's projection from the instrumented trace.
//
// Run with:
//
//	go run ./examples/scaling            # scale-15 RMAT-G
//	go run ./examples/scaling -scale 17 -preset b
package main

import (
	"flag"
	"fmt"
	"log"
	"runtime"

	"chordal"
	"chordal/internal/core"
	"chordal/internal/machine"
)

func main() {
	var (
		scale  = flag.Int("scale", 15, "R-MAT scale")
		preset = flag.String("preset", "g", "er|g|b")
		trials = flag.Int("trials", 3, "trials per point (fastest kept)")
	)
	flag.Parse()

	if *preset != "er" && *preset != "g" && *preset != "b" {
		log.Fatalf("unknown preset %q", *preset)
	}
	src, err := chordal.ParseSource(fmt.Sprintf("rmat-%s:%d:7", *preset, *scale))
	if err != nil {
		log.Fatal(err)
	}
	g, err := src.Load()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("graph: %s\n", chordal.ComputeStats(g))

	maxP := runtime.GOMAXPROCS(0)
	fmt.Printf("host sweep to %d workers; XMT model projected to 128 processors\n\n", maxP)
	fmt.Printf("%8s %14s %14s %14s | %14s\n", "workers", "host-Unopt", "host-Opt", "speedup(Opt)", "XMT-Opt@same-p")

	var trace machine.Trace
	var base float64
	for procs := 1; procs <= maxP; procs *= 2 {
		bestU, bestO := measure(g, procs, chordal.VariantUnoptimized, *trials), measure(g, procs, chordal.VariantOptimized, *trials)
		if procs == 1 {
			base = bestO.seconds
		}
		if trace.Work == nil {
			trace = machine.TraceFromResult(bestO.res, g.NumEdges())
		}
		xmt := machine.DefaultXMT().Predict(trace, procs)
		fmt.Printf("%8d %13.2fms %13.2fms %14.2f | %13.2fms\n",
			procs, bestU.seconds*1000, bestO.seconds*1000, base/bestO.seconds,
			float64(xmt.Microseconds())/1000)
	}

	fmt.Printf("\nXMT model full machine (128p, Opt trace): %v\n",
		machine.DefaultXMT().Predict(trace, 128))
	fmt.Printf("XMT model speedup at 128p: %.1f (paper Table II: 28-48 on synthetic inputs)\n",
		machine.Speedup(machine.DefaultXMT(), trace, 128))
}

type point struct {
	res     *core.Result
	seconds float64
}

func measure(g *chordal.Graph, workers int, v chordal.Variant, trials int) point {
	best := point{seconds: 1e18}
	for i := 0; i < trials; i++ {
		res, err := chordal.Extract(g, chordal.Options{Workers: workers, Variant: v})
		if err != nil {
			log.Fatal(err)
		}
		if s := res.Total.Seconds(); s < best.seconds {
			best = point{res: res, seconds: s}
		}
	}
	return best
}
