// Package seq provides the biological-sequence substrate used throughout the
// FastLSA reproduction: residue alphabets, validated sequences, FASTA I/O,
// seeded random sequence generators, and a homology mutation channel that
// derives realistic "related pair" workloads (the stand-in for the paper's
// proprietary biological test data; see DESIGN.md §4).
package seq

import (
	"fmt"
	"strings"
)

// Sequence is a validated residue string over a specific Alphabet.
// The zero value is an empty DNA sequence and is ready to use.
type Sequence struct {
	// ID is an optional identifier (FASTA header, generator tag, ...).
	ID string
	// Residues holds the residue letters, one byte each, already validated
	// against Alphabet (uppercase canonical form).
	Residues []byte
	// Alphabet describes the residue universe of this sequence.
	Alphabet *Alphabet
}

// New validates letters against the alphabet and returns a Sequence.
// Lowercase input letters are canonicalised to uppercase. An error names the
// first offending letter and its position.
func New(id string, letters string, a *Alphabet) (*Sequence, error) {
	if a == nil {
		a = DNA
	}
	res := make([]byte, len(letters))
	for i := 0; i < len(letters); i++ {
		c := upper(letters[i])
		if !a.Contains(c) {
			return nil, fmt.Errorf("seq: sequence %q: letter %q at position %d not in alphabet %s", id, letters[i], i, a.Name)
		}
		res[i] = c
	}
	return &Sequence{ID: id, Residues: res, Alphabet: a}, nil
}

// MustNew is New but panics on invalid input. For tests and examples.
func MustNew(id string, letters string, a *Alphabet) *Sequence {
	s, err := New(id, letters, a)
	if err != nil {
		panic(err)
	}
	return s
}

// Len reports the number of residues.
func (s *Sequence) Len() int { return len(s.Residues) }

// At returns the residue at position i (0-based).
func (s *Sequence) At(i int) byte { return s.Residues[i] }

// String renders the residues as a plain string.
func (s *Sequence) String() string { return string(s.Residues) }

// Clone returns a deep copy of the sequence.
func (s *Sequence) Clone() *Sequence {
	r := make([]byte, len(s.Residues))
	copy(r, s.Residues)
	return &Sequence{ID: s.ID, Residues: r, Alphabet: s.Alphabet}
}

// Slice returns the subsequence covering residues [lo, hi) as a view
// (no copy). The returned sequence shares backing storage with s.
func (s *Sequence) Slice(lo, hi int) *Sequence {
	return &Sequence{ID: s.ID, Residues: s.Residues[lo:hi], Alphabet: s.Alphabet}
}

// Equal reports whether two sequences have identical residues.
func Equal(a, b *Sequence) bool {
	if a.Len() != b.Len() {
		return false
	}
	for i := range a.Residues {
		if a.Residues[i] != b.Residues[i] {
			return false
		}
	}
	return true
}

func upper(c byte) byte {
	if 'a' <= c && c <= 'z' {
		return c - 'a' + 'A'
	}
	return c
}

// Alphabet is a residue universe. Letters are canonical uppercase bytes.
type Alphabet struct {
	// Name identifies the alphabet ("dna", "protein", ...).
	Name string
	// Letters is the ordered canonical letter set.
	Letters []byte

	member [256]bool
	index  [256]int8
}

// NewAlphabet builds an alphabet from a letter string. Duplicate letters are
// rejected; letters are canonicalised to uppercase.
func NewAlphabet(name, letters string) (*Alphabet, error) {
	if letters == "" {
		return nil, fmt.Errorf("seq: alphabet %q has no letters", name)
	}
	a := &Alphabet{Name: name}
	for i := range a.index {
		a.index[i] = -1
	}
	for i := 0; i < len(letters); i++ {
		c := upper(letters[i])
		if a.member[c] {
			return nil, fmt.Errorf("seq: alphabet %q: duplicate letter %q", name, c)
		}
		a.member[c] = true
		a.index[c] = int8(len(a.Letters))
		a.Letters = append(a.Letters, c)
	}
	return a, nil
}

func mustAlphabet(name, letters string) *Alphabet {
	a, err := NewAlphabet(name, letters)
	if err != nil {
		panic(err)
	}
	return a
}

// Contains reports whether c (case-insensitively) is a letter of the alphabet.
func (a *Alphabet) Contains(c byte) bool { return a.member[upper(c)] }

// Index returns the 0-based position of c within the alphabet letters, or -1.
func (a *Alphabet) Index(c byte) int { return int(a.index[upper(c)]) }

// Size reports the number of letters.
func (a *Alphabet) Size() int { return len(a.Letters) }

// String implements fmt.Stringer.
func (a *Alphabet) String() string {
	return fmt.Sprintf("%s[%s]", a.Name, string(a.Letters))
}

// Standard alphabets.
var (
	// DNA is the four-nucleotide alphabet.
	DNA = mustAlphabet("dna", "ACGT")
	// DNAIUPAC extends DNA with the eleven IUPAC ambiguity codes
	// (R=AG, Y=CT, S=GC, W=AT, K=GT, M=AC, B=CGT, D=AGT, H=ACT, V=ACG,
	// N=ACGT), as real sequencing data contains them.
	DNAIUPAC = mustAlphabet("dna-iupac", "ACGTRYSWKMBDHVN")
	// Protein is the 20-residue amino-acid alphabet in the conventional
	// single-letter order used by scoring matrices in internal/scoring.
	Protein = mustAlphabet("protein", "ARNDCQEGHILKMFPSTWYV")
)

// IUPACBases expands an IUPAC nucleotide code to its concrete base set
// (e.g. 'R' -> "AG"; plain bases map to themselves). Unknown codes return "".
func IUPACBases(code byte) string {
	switch upper(code) {
	case 'A':
		return "A"
	case 'C':
		return "C"
	case 'G':
		return "G"
	case 'T':
		return "T"
	case 'R':
		return "AG"
	case 'Y':
		return "CT"
	case 'S':
		return "GC"
	case 'W':
		return "AT"
	case 'K':
		return "GT"
	case 'M':
		return "AC"
	case 'B':
		return "CGT"
	case 'D':
		return "AGT"
	case 'H':
		return "ACT"
	case 'V':
		return "ACG"
	case 'N':
		return "ACGT"
	default:
		return ""
	}
}

// ParseAlphabet resolves an alphabet by name ("dna" or "protein").
func ParseAlphabet(name string) (*Alphabet, error) {
	switch strings.ToLower(name) {
	case "dna", "nucleotide":
		return DNA, nil
	case "dna-iupac", "iupac":
		return DNAIUPAC, nil
	case "protein", "aa", "amino":
		return Protein, nil
	default:
		return nil, fmt.Errorf("seq: unknown alphabet %q (want dna, dna-iupac or protein)", name)
	}
}
