package seq

import (
	"fmt"
	"math/rand"
)

// Random returns a sequence of n i.i.d. uniform residues drawn from the
// alphabet using the given seed. Deterministic for a fixed (seed, n, a).
func Random(id string, n int, a *Alphabet, seed int64) *Sequence {
	if a == nil {
		a = DNA
	}
	rng := rand.New(rand.NewSource(seed))
	res := make([]byte, n)
	for i := range res {
		res[i] = a.Letters[rng.Intn(len(a.Letters))]
	}
	return &Sequence{ID: id, Residues: res, Alphabet: a}
}

// RandomWeighted returns a sequence of n residues drawn from the alphabet with
// the supplied per-letter weights (parallel to a.Letters). Weights need not be
// normalised; they must be non-negative with a positive sum.
func RandomWeighted(id string, n int, a *Alphabet, weights []float64, seed int64) (*Sequence, error) {
	if a == nil {
		a = DNA
	}
	if len(weights) != a.Size() {
		return nil, fmt.Errorf("seq: RandomWeighted: %d weights for alphabet of size %d", len(weights), a.Size())
	}
	var total float64
	for i, w := range weights {
		if w < 0 {
			return nil, fmt.Errorf("seq: RandomWeighted: negative weight %g for letter %q", w, a.Letters[i])
		}
		total += w
	}
	if total <= 0 {
		return nil, fmt.Errorf("seq: RandomWeighted: weights sum to %g, want > 0", total)
	}
	cum := make([]float64, len(weights))
	acc := 0.0
	for i, w := range weights {
		acc += w / total
		cum[i] = acc
	}
	cum[len(cum)-1] = 1.0 // guard against rounding
	rng := rand.New(rand.NewSource(seed))
	res := make([]byte, n)
	for i := range res {
		u := rng.Float64()
		j := 0
		for cum[j] < u {
			j++
		}
		res[i] = a.Letters[j]
	}
	return &Sequence{ID: id, Residues: res, Alphabet: a}, nil
}

// MutationModel is a point-substitution / indel channel. It derives a second
// sequence from a reference so that the pair has a controlled level of
// homology, which is the property that matters for alignment-path structure.
// This is the synthetic stand-in for the paper's biological test pairs
// (DESIGN.md §4).
type MutationModel struct {
	// SubstitutionRate is the per-residue probability of replacing the
	// residue with a uniformly chosen different letter.
	SubstitutionRate float64
	// InsertionRate is the per-position probability of inserting a run of
	// random residues after the current residue.
	InsertionRate float64
	// DeletionRate is the per-residue probability of dropping the residue.
	DeletionRate float64
	// MaxIndelRun bounds the geometric run length of a single insertion or
	// deletion event (<=0 selects 1).
	MaxIndelRun int
	// IndelExtend is the probability of extending an indel run by one more
	// residue (geometric runs; 0 gives runs of exactly one).
	IndelExtend float64
}

// Validate reports the first invalid field.
func (m MutationModel) Validate() error {
	check := func(name string, v float64) error {
		if v < 0 || v > 1 {
			return fmt.Errorf("seq: MutationModel.%s = %g out of [0,1]", name, v)
		}
		return nil
	}
	if err := check("SubstitutionRate", m.SubstitutionRate); err != nil {
		return err
	}
	if err := check("InsertionRate", m.InsertionRate); err != nil {
		return err
	}
	if err := check("DeletionRate", m.DeletionRate); err != nil {
		return err
	}
	if err := check("IndelExtend", m.IndelExtend); err != nil {
		return err
	}
	return nil
}

// DefaultHomology is a mutation model producing pairs of roughly 70-80%
// identity, comparable to the related biological pairs used in alignment
// benchmarking.
var DefaultHomology = MutationModel{
	SubstitutionRate: 0.15,
	InsertionRate:    0.02,
	DeletionRate:     0.02,
	MaxIndelRun:      8,
	IndelExtend:      0.5,
}

// Mutate applies the channel to ref and returns the derived sequence.
// Deterministic for a fixed (ref, model, seed).
func (m MutationModel) Mutate(id string, ref *Sequence, seed int64) (*Sequence, error) {
	if err := m.Validate(); err != nil {
		return nil, err
	}
	a := ref.Alphabet
	if a.Size() < 2 && m.SubstitutionRate > 0 {
		return nil, fmt.Errorf("seq: Mutate: alphabet %s too small for substitutions", a.Name)
	}
	maxRun := m.MaxIndelRun
	if maxRun <= 0 {
		maxRun = 1
	}
	rng := rand.New(rand.NewSource(seed))
	runLen := func() int {
		n := 1
		for n < maxRun && rng.Float64() < m.IndelExtend {
			n++
		}
		return n
	}
	out := make([]byte, 0, ref.Len()+ref.Len()/8)
	for i := 0; i < ref.Len(); i++ {
		c := ref.Residues[i]
		switch {
		case rng.Float64() < m.DeletionRate:
			// drop c (and possibly a run of following residues)
			i += runLen() - 1
			continue
		case rng.Float64() < m.SubstitutionRate:
			out = append(out, otherLetter(a, c, rng))
		default:
			out = append(out, c)
		}
		if rng.Float64() < m.InsertionRate {
			for j, n := 0, runLen(); j < n; j++ {
				out = append(out, a.Letters[rng.Intn(a.Size())])
			}
		}
	}
	if len(out) == 0 && ref.Len() > 0 {
		// Degenerate channel (e.g. DeletionRate=1); keep one residue so the
		// result is a usable sequence. An empty reference stays empty.
		out = append(out, ref.Residues[0])
	}
	return &Sequence{ID: id, Residues: out, Alphabet: a}, nil
}

// HomologousPair generates a reference of length n and a mutated partner in
// one call. The partner's length varies around n according to the model.
func HomologousPair(n int, a *Alphabet, model MutationModel, seed int64) (*Sequence, *Sequence, error) {
	ref := Random(fmt.Sprintf("ref_%d", n), n, a, seed)
	mut, err := model.Mutate(fmt.Sprintf("hom_%d", n), ref, seed+1)
	if err != nil {
		return nil, nil, err
	}
	return ref, mut, nil
}

func otherLetter(a *Alphabet, c byte, rng *rand.Rand) byte {
	for {
		l := a.Letters[rng.Intn(a.Size())]
		if l != c {
			return l
		}
	}
}
