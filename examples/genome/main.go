// Genome: whole-genome-scale alignment under a memory budget — the
// scenario that motivates FastLSA (paper §1: "aligning two sequences with
// 10,000 letters each requires 400 Mbytes" for the full matrix).
//
// The program generates a pair of homologous DNA sequences (default 50,000
// bases, ~2.5 billion DPM cells would need ~20 GB as a stored matrix),
// aligns them with Parallel FastLSA under a budget of a few megabytes, and
// reports throughput, memory, and identity.
//
// Run: go run ./examples/genome [-n 50000] [-budget 2000000] [-workers 0]
package main

import (
	"flag"
	"fmt"
	"log"
	"runtime"
	"time"

	"fastlsa"
)

func main() {
	n := flag.Int("n", 50000, "reference genome length (bases)")
	budget := flag.Int64("budget", 2_000_000, "memory budget in DPM entries (8 bytes each)")
	workers := flag.Int("workers", 0, "parallel workers (0 = all CPUs)")
	flag.Parse()

	fmt.Printf("generating a homologous pair of ~%d bases...\n", *n)
	a, b, err := fastlsa.HomologousPair(*n, fastlsa.DNA, fastlsa.DefaultHomology, 2024)
	if err != nil {
		log.Fatal(err)
	}
	fullMatrix := int64(a.Len()+1) * int64(b.Len()+1)
	fmt.Printf("sequences: %d x %d bases\n", a.Len(), b.Len())
	fmt.Printf("full DP matrix would need %d entries (%.1f GB); budget is %d entries (%.1f MB)\n",
		fullMatrix, float64(fullMatrix)*8/1e9, *budget, float64(*budget)*8/1e6)

	var counters fastlsa.Counters
	// A span trace gives the per-phase time breakdown below; recording adds
	// one ring-buffer append per tile, nothing on the cell loops.
	trace := fastlsa.NewTrace(0)
	opt := fastlsa.Options{
		Matrix:       fastlsa.DNASimple,
		Gap:          fastlsa.Linear(-4),
		Algorithm:    fastlsa.AlgoAuto, // FastLSA adapted to the budget
		MemoryBudget: *budget,
		Workers:      *workers,
		Counters:     &counters,
		Trace:        trace,
	}

	start := time.Now()
	al, err := fastlsa.Align(a, b, opt)
	if err != nil {
		log.Fatal(err)
	}
	elapsed := time.Since(start)

	st := al.Stats()
	p := *workers
	if p == 0 {
		p = runtime.GOMAXPROCS(0)
	}
	fmt.Printf("\naligned in %v with %d workers\n", elapsed.Round(time.Millisecond), p)
	fmt.Printf("score: %d, identity: %.1f%%, alignment columns: %d\n", al.Score, 100*st.Identity, st.Columns)
	fmt.Printf("cells computed: %d (%.2fx the matrix; Hirschberg would be ~2x)\n",
		counters.Cells.Load(), float64(counters.Cells.Load())/(float64(a.Len())*float64(b.Len())))
	fmt.Printf("throughput: %.1f Mcells/s\n", float64(counters.Cells.Load())/elapsed.Seconds()/1e6)
	fmt.Printf("fill tiles: %d (wavefront phases %d/%d/%d)\n",
		counters.FillTiles.Load(), counters.Phase1Tiles.Load(), counters.Phase2Tiles.Load(), counters.Phase3Tiles.Load())
	fmt.Printf("peak budget entries: %d of %d\n", counters.PeakGridEntries.Load(), *budget)

	// Where the time went, from the recorded spans: total tile-fill time per
	// wavefront phase (Figure 13: ramp-up / saturated / ramp-down) plus the
	// base-case and traceback totals. Phase-2 should dominate on big inputs —
	// that is where all P workers are busy.
	fmt.Printf("\nper-phase time breakdown (sum of span durations across workers):\n")
	var fillTotal time.Duration
	for _, tot := range trace.Totals() {
		if tot.Name == fastlsa.SpanNameFillTile {
			fillTotal += tot.Total
		}
	}
	for _, tot := range trace.Totals() {
		switch tot.Name {
		case fastlsa.SpanNameFillTile:
			share := 0.0
			if fillTotal > 0 {
				share = 100 * float64(tot.Total) / float64(fillTotal)
			}
			fmt.Printf("  fill phase %d: %10v over %6d tiles (%4.1f%% of fill time)\n",
				tot.Phase, tot.Total.Round(time.Microsecond), tot.Count, share)
		case fastlsa.SpanNameFillBlock:
			fmt.Printf("  fill (sequential blocks): %10v over %6d blocks\n",
				tot.Total.Round(time.Microsecond), tot.Count)
		case fastlsa.SpanNameBaseCase:
			fmt.Printf("  base cases:   %10v over %6d runs\n", tot.Total.Round(time.Microsecond), tot.Count)
		case fastlsa.SpanNameTraceback:
			fmt.Printf("  traceback:    %10v over %6d walks\n", tot.Total.Round(time.Microsecond), tot.Count)
		}
	}
	if trace.Dropped() > 0 {
		fmt.Printf("  (ring dropped %d spans; totals above remain exact)\n", trace.Dropped())
	}
}
