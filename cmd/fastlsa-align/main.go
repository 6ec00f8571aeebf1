// Command fastlsa-align is a pairwise sequence aligner built on the fastlsa
// library: FASTA in, alignment out, with the algorithm, gap model, memory
// budget, FastLSA parameters and parallelism selectable from flags.
//
// Usage:
//
//	fastlsa-align [flags] a.fasta b.fasta     # first record of each file
//	fastlsa-align [flags] pair.fasta          # first two records of one file
//
// Examples:
//
//	fastlsa-align -matrix blosum62 -gap -8 query.fa target.fa
//	fastlsa-align -algorithm fm -alphabet dna -workers 8 pair.fa
//	fastlsa-align -local -matrix dna -open -12 -extend -2 a.fa b.fa
package main

import (
	"flag"
	"fmt"
	"os"

	"fastlsa"
)

func main() {
	var (
		matrixName = flag.String("matrix", "blosum62", "scoring matrix: table1, mdm78, blosum62, dna, dna-strict")
		alphaName  = flag.String("alphabet", "", "residue alphabet: dna or protein (default: the matrix's alphabet)")
		algoName   = flag.String("algorithm", "auto", "engine: auto, fastlsa, fm, hirschberg, compact, wfa")
		modeName   = flag.String("mode", "global", "ends-free mode: global, overlap, fit-b-in-a, fit-a-in-b")
		gapPen     = flag.Int("gap", -10, "linear gap penalty per gapped position (negative)")
		open       = flag.Int("open", 0, "affine gap-open penalty (non-positive; 0 keeps the linear model)")
		extend     = flag.Int("extend", 0, "affine gap-extend penalty (used with -open)")
		workers    = flag.Int("workers", 0, "parallel workers P (0 = all CPUs, 1 = sequential)")
		budget     = flag.Int64("memory", 0, "memory budget in DPM entries, 8 bytes each (0 = unlimited)")
		kParam     = flag.Int("k", 0, "FastLSA grid divisions per dimension (0 = default 8)")
		baseCells  = flag.Int("base", 0, "FastLSA base-case buffer entries BM (0 = default 64Ki)")
		band       = flag.Int("band", 0, "banded alignment: band width (-1 = exact, runs FastLSA; 0 = off)")
		local      = flag.Bool("local", false, "Smith-Waterman local alignment instead of global")
		scoreOnly  = flag.Bool("score-only", false, "print only the optimal score (linear space)")
		width      = flag.Int("width", 60, "alignment columns per output block")
		showStats  = flag.Bool("stats", false, "print instrumentation counters")
		tracePath  = flag.String("trace", "", "write a Chrome trace_event JSON profile of the run to this file (open in chrome://tracing or Perfetto)")
	)
	flag.Parse()
	if err := run(*matrixName, *alphaName, *algoName, *modeName, *gapPen, *open, *extend,
		*workers, *budget, *kParam, *baseCells, *band, *local, *scoreOnly, *width, *showStats, *tracePath, flag.Args()); err != nil {
		fmt.Fprintln(os.Stderr, "fastlsa-align:", err)
		os.Exit(1)
	}
}

func run(matrixName, alphaName, algoName, modeName string, gapPen, open, extend, workers int,
	budget int64, kParam, baseCells, band int, local, scoreOnly bool, width int, showStats bool,
	tracePath string, args []string) error {

	matrix, err := fastlsa.MatrixByName(matrixName)
	if err != nil {
		return err
	}
	mode, err := fastlsa.ParseMode(modeName)
	if err != nil {
		return err
	}
	alphabet := matrix.Alphabet
	if alphaName != "" {
		if alphabet, err = fastlsa.ParseAlphabet(alphaName); err != nil {
			return err
		}
	}
	algo, err := fastlsa.ParseAlgorithm(algoName)
	if err != nil {
		return err
	}
	gap := fastlsa.Linear(gapPen)
	if open != 0 {
		gap = fastlsa.Affine(open, extend)
	}

	a, b, err := loadPair(args, alphabet)
	if err != nil {
		return err
	}

	var counters fastlsa.Counters
	var route fastlsa.RouteInfo
	opt := fastlsa.Options{
		Matrix:       matrix,
		Gap:          gap,
		Mode:         mode,
		Algorithm:    algo,
		MemoryBudget: budget,
		Workers:      workers,
		K:            kParam,
		BaseCells:    baseCells,
		Counters:     &counters,
		Route:        &route,
	}
	var tr *fastlsa.Trace
	if tracePath != "" {
		tr = fastlsa.NewTrace(0)
		tr.SetLabel(fmt.Sprintf("fastlsa-align %s x %s", a.ID, b.ID))
		opt.Trace = tr
	}

	switch {
	case band != 0:
		al, err := fastlsa.AlignBanded(a, b, opt, band)
		if err != nil {
			return err
		}
		if err := al.Fprint(os.Stdout, fastlsa.FormatOptions{Width: width, Matrix: matrix, ShowRuler: true}); err != nil {
			return err
		}
		fmt.Printf("cigar: %s (band=%d)\n", al.Path.CIGAR(), band)
	case scoreOnly:
		score, err := fastlsa.Score(a, b, opt)
		if err != nil {
			return err
		}
		fmt.Println(score)
	case local:
		loc, err := fastlsa.AlignLocal(a, b, opt)
		if err != nil {
			return err
		}
		if loc.Score == 0 {
			fmt.Println("no positive-scoring local alignment")
			break
		}
		fmt.Printf("local alignment: %s[%d:%d] x %s[%d:%d] score=%d\n",
			a.ID, loc.StartA, loc.EndA, b.ID, loc.StartB, loc.EndB, loc.Score)
		sub := &fastlsa.Alignment{
			A:     a.Slice(loc.StartA, loc.EndA),
			B:     b.Slice(loc.StartB, loc.EndB),
			Path:  loc.Path,
			Score: loc.Score,
		}
		if err := sub.Fprint(os.Stdout, fastlsa.FormatOptions{Width: width, Matrix: matrix, ShowRuler: true}); err != nil {
			return err
		}
	default:
		al, err := fastlsa.Align(a, b, opt)
		if err != nil {
			return err
		}
		if err := al.Fprint(os.Stdout, fastlsa.FormatOptions{Width: width, Matrix: matrix, ShowRuler: true}); err != nil {
			return err
		}
		fmt.Printf("cigar: %s\n", al.Path.CIGAR())
	}

	if showStats {
		if route.Backend != "" {
			fmt.Printf("backend: %s (%s)\n", route.Backend, route.Reason)
		}
		fmt.Printf("stats: %s\n", counters.Snapshot())
	}
	if tr != nil {
		f, err := os.Create(tracePath)
		if err != nil {
			return err
		}
		werr := tr.WriteChrome(f)
		cerr := f.Close()
		if werr != nil {
			return fmt.Errorf("writing trace: %w", werr)
		}
		if cerr != nil {
			return cerr
		}
		fmt.Fprintf(os.Stderr, "trace: %d spans written to %s\n", tr.Len(), tracePath)
	}
	return nil
}

func loadPair(args []string, alphabet *fastlsa.Alphabet) (*fastlsa.Sequence, *fastlsa.Sequence, error) {
	switch len(args) {
	case 1:
		f, err := os.Open(args[0])
		if err != nil {
			return nil, nil, err
		}
		defer f.Close()
		recs, err := fastlsa.ReadFASTA(f, alphabet)
		if err != nil {
			return nil, nil, err
		}
		if len(recs) < 2 {
			return nil, nil, fmt.Errorf("%s holds %d record(s); need two", args[0], len(recs))
		}
		return recs[0], recs[1], nil
	case 2:
		var out [2]*fastlsa.Sequence
		for i, path := range args {
			f, err := os.Open(path)
			if err != nil {
				return nil, nil, err
			}
			recs, err := fastlsa.ReadFASTA(f, alphabet)
			f.Close()
			if err != nil {
				return nil, nil, err
			}
			out[i] = recs[0]
		}
		return out[0], out[1], nil
	default:
		return nil, nil, fmt.Errorf("want one FASTA file with two records, or two files (got %d args)", len(args))
	}
}
