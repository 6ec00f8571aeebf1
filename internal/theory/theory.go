// Package theory makes the paper's Appendix A executable: the worst-case
// operation recurrences of sequential FastLSA (Theorem 2) and Parallel
// FastLSA (Theorem 4, Equations 28-36) are evaluated exactly, next to their
// closed-form bounds. The test suite cross-checks the recurrences against
// the closed forms, against the wavefront schedule simulator, and against
// the instrumented implementation — three independent routes to the same
// quantities.
package theory

import "fmt"

// SequentialCells evaluates the worst-case cell-count recurrence of
// sequential FastLSA exactly:
//
//	T(m, n) = m*n                   if (m+1)(n+1) <= bm  (base case)
//	T(m, n) = m*n + (2k-1) * T(⌈m/k⌉, ⌈n/k⌉)   otherwise (fill + path blocks)
//
// This is Equation 6's shape with the base case made explicit and the
// largest block of an uneven split (sizes not divisible by k) as the
// subproblem. The result upper-bounds what the implementation's Cells
// counter reports for the same (m, n, k, bm): real paths cross at most 2k-1
// blocks, none larger than ⌈m/k⌉ x ⌈n/k⌉, and usually fewer.
func SequentialCells(m, n, k, bm int) (int64, error) {
	if err := checkParams(m, n, k); err != nil {
		return 0, err
	}
	if bm < 4 {
		return 0, fmt.Errorf("theory: base-case buffer %d too small", bm)
	}
	return seqCells(m, n, k, bm), nil
}

func seqCells(m, n, k, bm int) int64 {
	if m <= 0 || n <= 0 {
		return 0
	}
	if (m+1)*(n+1) <= bm || m == 1 || n == 1 {
		return int64(m) * int64(n)
	}
	keff := k
	if keff > m {
		keff = m
	}
	if keff > n {
		keff = n
	}
	return int64(m)*int64(n) + int64(2*keff-1)*seqCells(ceilDiv(m, keff), ceilDiv(n, keff), k, bm)
}

// SequentialBound is Theorem 2's closed form: T(m,n) <= m*n * (k/(k-1))^2.
func SequentialBound(m, n, k int) float64 {
	return float64(m) * float64(n) * float64(k*k) / float64((k-1)*(k-1))
}

// Alpha is Equation 32: the per-cell parallel-time coefficient of one Fill
// Cache computed on P processors over an R x C tiling,
// alpha = (1 + (P^2 - P) / (R*C)) / P.
func Alpha(p, r, c int) float64 {
	if p < 1 {
		p = 1
	}
	return (1 + float64(p*p-p)/float64(r*c)) / float64(p)
}

// ParallelTime evaluates Equation 28 exactly:
//
//	WT(m, n) = m*n*alpha + (2k-1) * WT(⌈m/k⌉, ⌈n/k⌉)
//
// terminating in the parallel base case (Equation 33, also m*n*alpha). The
// unit is "sequential cell times"; dividing total work by this gives the
// model speedup of the paper's analysis.
func ParallelTime(m, n, k, p, u, v, bm int) (float64, error) {
	if err := checkParams(m, n, k); err != nil {
		return 0, err
	}
	if p < 1 || u < 1 || v < 1 {
		return 0, fmt.Errorf("theory: P=%d u=%d v=%d must all be >= 1", p, u, v)
	}
	return parTime(m, n, k, p, u, v, bm), nil
}

func parTime(m, n, k, p, u, v, bm int) float64 {
	if m <= 0 || n <= 0 {
		return 0
	}
	if (m+1)*(n+1) <= bm || m == 1 || n == 1 {
		// Parallel base case (Equation 33) over a 2P x 2P tiling, matching
		// the implementation's parallel base-case grid.
		r := minInt(2*p, m)
		c := minInt(2*p, n)
		return float64(m) * float64(n) * Alpha(p, maxInt(r, 1), maxInt(c, 1))
	}
	keff := k
	if keff > m {
		keff = m
	}
	if keff > n {
		keff = n
	}
	r, c := keff*u, keff*v
	if r > m {
		r = m
	}
	if c > n {
		c = n
	}
	fill := float64(m) * float64(n) * Alpha(p, r, c)
	return fill + float64(2*keff-1)*parTime(ceilDiv(m, keff), ceilDiv(n, keff), k, p, u, v, bm)
}

// ParallelBound is Theorem 4's closed form:
//
//	WT(m,n,k,P) <= (m*n/P) * (1 + (P^2-P)/(R*C)) * (k/(k-1))^2
//
// with R = u*k, C = v*k at the top level.
func ParallelBound(m, n, k, p, u, v int) float64 {
	return float64(m) * float64(n) * Alpha(p, u*k, v*k) *
		float64(k*k) / float64((k-1)*(k-1))
}

// ModelSpeedup is the analysis' predicted speedup: total sequential work
// over parallel time, both from the recurrences.
func ModelSpeedup(m, n, k, p, u, v, bm int) (float64, error) {
	seq, err := SequentialCells(m, n, k, bm)
	if err != nil {
		return 0, err
	}
	par, err := ParallelTime(m, n, k, p, u, v, bm)
	if err != nil {
		return 0, err
	}
	if par <= 0 {
		return 0, fmt.Errorf("theory: degenerate parallel time")
	}
	return float64(seq) / par, nil
}

// GridMemory is the peak grid-cache footprint of the recursion in DPM
// entries: each live level holds k row lines and k column lines of its
// subproblem, and levels shrink geometrically (paper §3's space analysis).
func GridMemory(m, n, k, bm int) (int64, error) {
	if err := checkParams(m, n, k); err != nil {
		return 0, err
	}
	var total int64
	for m > 1 && n > 1 && (m+1)*(n+1) > bm {
		keff := k
		if keff > m {
			keff = m
		}
		if keff > n {
			keff = n
		}
		total += int64(keff) * int64(m+1+n+1)
		m /= keff
		n /= keff
	}
	return total + int64(bm), nil
}

func checkParams(m, n, k int) error {
	if m < 0 || n < 0 {
		return fmt.Errorf("theory: negative dimensions %dx%d", m, n)
	}
	if k < 2 {
		return fmt.Errorf("theory: k=%d must be >= 2", k)
	}
	return nil
}

func minInt(a, b int) int {
	if a < b {
		return a
	}
	return b
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}

// ceilDiv is ⌈a/b⌉ for a >= 0, b > 0: the largest segment when a is split
// into b near-equal parts.
func ceilDiv(a, b int) int { return (a + b - 1) / b }
