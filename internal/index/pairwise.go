package index

import (
	"math"

	"fastlsa/internal/seq"
)

// Windowing bounds of EstimateIdentity: at most identityWindow residues of
// each sequence are examined (further bounded by a quarter of the gram
// universe, so the chance-collision background stays small — see the f0
// correction below), and at most identitySamples grams of the longer window
// are probed, so an estimate costs O(window + samples) no matter how long
// the inputs are.
const (
	identityWindow  = 1 << 20
	identitySamples = 4096
	// identityMaxCodes bounds the gram-count array (int32 per code).
	identityMaxCodes = 1 << 18
)

// identityScratch is the reusable gram-count state of one estimate: a counts
// array sized for the largest permitted gram universe, and the list of codes
// actually incremented so resetting zeroes only the touched entries instead
// of memsetting the whole (up to 1 MiB) array.
type identityScratch struct {
	counts  []int32
	touched []int32
}

// identityScratchFree is a bounded free list of idle scratches. A sync.Pool
// may drop any Put (the race detector drops a random share on purpose), and
// each drop reallocates the 1 MiB counts array. At most 4 stay pinned.
var identityScratchFree = make(chan *identityScratch, 4)

// reset zeroes every touched count and empties the touched list, leaving the
// scratch ready for reuse.
func (sc *identityScratch) reset() {
	for _, code := range sc.touched {
		sc.counts[code] = 0
	}
	sc.touched = sc.touched[:0]
}

// sampleStride returns the probe stride that spreads at most identitySamples
// probes evenly across total grams: ceil(total/identitySamples), so the
// sample count is bounded by identitySamples (a truncating divide would
// probe up to twice that on totals just under an exact multiple).
func sampleStride(total int) int {
	if total <= identitySamples {
		return 1
	}
	return (total + identitySamples - 1) / identitySamples
}

// EstimateIdentity cheaply estimates the per-residue identity of a sequence
// pair from shared q-gram content, the signal the backend router uses to
// pick WFA for low-divergence pairs. q <= 0 selects DefaultQ for the
// alphabet.
//
// The estimator counts the grams of the shorter sequence (one pass over a
// bounded prefix window) and probes a bounded stride-sample of the longer
// sequence's grams against those counts as a multiset (each hit consumes a
// count, so repeats are not over-credited). An unrelated probe gram still
// hits a reference multiset of R grams with probability about
// 1 − e^(−R/|codes|); that chance-collision background f0 is subtracted
// from the observed shared fraction and the remainder rescaled, so
// unrelated pairs estimate near zero regardless of window length (without
// this, long random pairs saturate the code space and estimate identity
// near one). If a background-corrected fraction f of sampled grams is
// shared, each residue independently surviving with probability p makes a
// whole gram survive with p^q, so the estimate is f^(1/q).
//
// ok is false when no estimate is possible: mismatched or missing
// alphabets, a sequence shorter than one gram, or a gram universe too large
// to count. Callers must treat !ok as "unknown", not "divergent".
func EstimateIdentity(a, b *seq.Sequence, q int) (identity float64, ok bool) {
	if a == nil || b == nil || a.Alphabet == nil || b.Alphabet == nil ||
		a.Alphabet.Name != b.Alphabet.Name {
		return 0, false
	}
	al := a.Alphabet
	if q <= 0 {
		q = DefaultQ(al)
	}
	powQ := 1
	for i := 0; i < q; i++ {
		if powQ > identityMaxCodes/al.Size() {
			return 0, false
		}
		powQ *= al.Size()
	}
	ra, rb := a.Residues, b.Residues
	window := powQ / 4
	if window > identityWindow {
		window = identityWindow
	}
	if len(ra) > window {
		ra = ra[:window]
	}
	if len(rb) > window {
		rb = rb[:window]
	}
	if len(ra) < q || len(rb) < q {
		return 0, false
	}
	ref, probe := ra, rb
	if len(rb) < len(ra) {
		ref, probe = rb, ra
	}
	var sc *identityScratch
	select {
	case sc = <-identityScratchFree:
	default:
		sc = new(identityScratch)
	}
	if cap(sc.counts) < powQ {
		sc.counts = make([]int32, identityMaxCodes)
	}
	counts := sc.counts[:powQ]
	touched := sc.touched
	gramCodes(ref, al, q, powQ, func(code int) {
		if counts[code] == 0 {
			touched = append(touched, int32(code))
		}
		counts[code]++
	})
	total := len(probe) - q + 1
	stride := sampleStride(total)
	samples, hits, i := 0, 0, 0
	gramCodes(probe, al, q, powQ, func(code int) {
		if i%stride == 0 {
			samples++
			if counts[code] > 0 {
				counts[code]--
				hits++
			}
		}
		i++
	})
	sc.touched = touched
	sc.reset()
	select {
	case identityScratchFree <- sc:
	default:
	}
	if samples == 0 {
		return 0, false
	}
	f := float64(hits) / float64(samples)
	refGrams := len(ref) - q + 1
	f0 := 1 - math.Exp(-float64(refGrams)/float64(powQ))
	if f <= f0 {
		return 0, true
	}
	f = (f - f0) / (1 - f0)
	return math.Pow(f, 1/float64(q)), true
}
