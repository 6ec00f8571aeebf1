// Command fastlsa-bench regenerates the paper's evaluation tables and
// figures (experiments E1-E15; see DESIGN.md §3 for the index and
// EXPERIMENTS.md for recorded results). Each subcommand prints one
// experiment's rows; "all" runs the whole suite.
//
// Usage:
//
//	fastlsa-bench <experiment>[,<experiment>...] [flags]
//
// Experiments:
//
//	example     E1: Figure 1 worked example
//	opcounts    E2: operation-count comparison table
//	table3      E3: benchmark workload suite
//	seqtime     E4: sequential time vs size (FM / Hirschberg / FastLSA)
//	ksweep      E5: effect of parameter k
//	memsweep    E6: adapting to the memory budget RM
//	speedup     E7: parallel speedup vs P
//	efficiency  E8: parallel efficiency vs problem size
//	tilesweep   E9: k sweep (R = C = k tiles) and the three wavefront phases
//	search      E10: q-gram seed filter vs brute-force corpus scan
//	bounds      E11: theorem-bound verification
//	wfa         E13: FastLSA vs WFA crossover by divergence
//	biwfa       E15: WFA vs BiWFA peak memory by divergence
//	all         every experiment above
//
// Flags (apply where meaningful):
//
//	-large        include the paper-scale large workloads (slow)
//	-n N          problem size override for ksweep/memsweep/tilesweep
//	-p P          worker count for efficiency/tilesweep
//	-sizes a,b,c  size list for opcounts/speedup
//	-workers a,b  worker list for speedup
//	-json f.json  also write machine-readable results (schema fastlsa-bench/v2)
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"

	"fastlsa/internal/bench"
)

// experimentIDs maps experiment names to the paper's evaluation numbering
// (DESIGN.md §3); experiments beyond the paper's suite have no E-number.
var experimentIDs = map[string]string{
	"example": "E1", "opcounts": "E2", "table3": "E3", "seqtime": "E4",
	"ksweep": "E5", "memsweep": "E6", "speedup": "E7", "efficiency": "E8",
	"tilesweep": "E9", "search": "E10", "bounds": "E11", "variants": "E12",
	"wfa": "E13", "biwfa": "E15",
}

func main() {
	var (
		large    = flag.Bool("large", false, "include paper-scale workloads (slow)")
		n        = flag.Int("n", 0, "problem size override (0 = experiment default)")
		p        = flag.Int("p", 0, "worker count override (0 = experiment default)")
		sizes    = flag.String("sizes", "", "comma-separated size list")
		workers  = flag.String("workers", "", "comma-separated worker list")
		ks       = flag.String("ks", "", "comma-separated k list")
		jsonPath = flag.String("json", "", "also write machine-readable results to this file (schema fastlsa-bench/v2; see docs/OBSERVABILITY.md)")
	)
	flag.Usage = func() {
		fmt.Fprintf(os.Stderr, "usage: fastlsa-bench <experiment>[,<experiment>...] [flags]\nexperiments: example opcounts table3 seqtime ksweep memsweep speedup efficiency tilesweep search bounds variants wfa biwfa all\n\n")
		flag.PrintDefaults()
	}
	if len(os.Args) < 2 {
		flag.Usage()
		os.Exit(2)
	}
	cmd := os.Args[1]
	if err := flag.CommandLine.Parse(os.Args[2:]); err != nil {
		os.Exit(2)
	}

	sizeList, err := parseInts(*sizes)
	if err != nil {
		fatal(err)
	}
	workerList, err := parseInts(*workers)
	if err != nil {
		fatal(err)
	}
	kList, err := parseInts(*ks)
	if err != nil {
		fatal(err)
	}

	var out io.Writer = os.Stdout
	var rec *bench.Recorder
	if *jsonPath != "" {
		rec = bench.NewRecorder(os.Stdout)
		out = rec
	}
	run := func(name string) error {
		if rec != nil {
			rec.StartExperiment(name, experimentIDs[name])
		}
		switch name {
		case "example":
			return bench.ExperimentExample(out)
		case "opcounts":
			return bench.ExperimentOpCounts(out, sizeList, kList)
		case "table3":
			return bench.ExperimentTable3(out, *large)
		case "seqtime":
			return bench.ExperimentSeqTime(out, *large)
		case "ksweep":
			return bench.ExperimentKSweep(out, *n, kList)
		case "memsweep":
			return bench.ExperimentMemSweep(out, *n)
		case "speedup":
			return bench.ExperimentSpeedup(out, sizeList, workerList)
		case "efficiency":
			return bench.ExperimentEfficiency(out, *p, *large)
		case "tilesweep":
			return bench.ExperimentTileSweep(out, *n, *p)
		case "search":
			return bench.ExperimentSearch(out, sizeList)
		case "bounds":
			return bench.ExperimentBounds(out)
		case "variants":
			return bench.ExperimentVariants(out, *n)
		case "wfa":
			return bench.ExperimentWFACrossover(out, *n)
		case "biwfa":
			return bench.ExperimentBiWFA(out, *n)
		case "theory":
			return bench.ExperimentTheory(out)
		default:
			return fmt.Errorf("unknown experiment %q", name)
		}
	}

	names := strings.Split(cmd, ",")
	if cmd == "all" {
		names = []string{
			"example", "opcounts", "table3", "seqtime", "ksweep",
			"memsweep", "speedup", "efficiency", "tilesweep", "search", "bounds", "variants", "wfa", "biwfa", "theory",
		}
	}
	for _, name := range names {
		name = strings.TrimSpace(name)
		if err := run(name); err != nil {
			fatal(fmt.Errorf("%s: %w", name, err))
		}
	}
	if rec != nil {
		f, err := os.Create(*jsonPath)
		if err != nil {
			fatal(err)
		}
		werr := rec.WriteJSON(f)
		if cerr := f.Close(); werr == nil {
			werr = cerr
		}
		if werr != nil {
			fatal(fmt.Errorf("writing %s: %w", *jsonPath, werr))
		}
	}
}

func parseInts(s string) ([]int, error) {
	if s == "" {
		return nil, nil
	}
	parts := strings.Split(s, ",")
	out := make([]int, 0, len(parts))
	for _, p := range parts {
		v, err := strconv.Atoi(strings.TrimSpace(p))
		if err != nil {
			return nil, fmt.Errorf("bad integer list %q: %w", s, err)
		}
		out = append(out, v)
	}
	return out, nil
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "fastlsa-bench:", err)
	os.Exit(1)
}
