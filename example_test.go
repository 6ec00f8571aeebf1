package fastlsa_test

import (
	"fmt"

	"fastlsa"
)

// The paper's Figure 1 worked example through every engine.
func ExampleAlign_engines() {
	a, _ := fastlsa.NewSequence("a", "TDVLKAD", fastlsa.Table1Alphabet)
	b, _ := fastlsa.NewSequence("b", "TLDKLLKD", fastlsa.Table1Alphabet)
	for _, algo := range []fastlsa.Algorithm{
		fastlsa.AlgoFastLSA, fastlsa.AlgoFullMatrix, fastlsa.AlgoHirschberg, fastlsa.AlgoCompact,
	} {
		al, err := fastlsa.Align(a, b, fastlsa.Options{
			Matrix: fastlsa.Table1, Gap: fastlsa.Linear(-10), Algorithm: algo, Workers: 1,
		})
		if err != nil {
			panic(err)
		}
		fmt.Printf("%s: %d\n", algo, al.Score)
	}
	// Output:
	// fastlsa: 82
	// fm: 82
	// hirschberg: 82
	// compact: 82
}

func ExampleScore() {
	a, _ := fastlsa.NewSequence("a", "ACGTACGT", fastlsa.DNA)
	b, _ := fastlsa.NewSequence("b", "ACGAACGT", fastlsa.DNA)
	score, err := fastlsa.Score(a, b, fastlsa.Options{
		Matrix: fastlsa.DNASimple, Gap: fastlsa.Linear(-4),
	})
	if err != nil {
		panic(err)
	}
	fmt.Println(score) // 7 matches * 5 - 4
	// Output: 31
}

func ExampleAlignLocal() {
	a, _ := fastlsa.NewSequence("a", "TTTTACGTACGTTTTT", fastlsa.DNA)
	b, _ := fastlsa.NewSequence("b", "GGGGGACGTACGTGGG", fastlsa.DNA)
	loc, err := fastlsa.AlignLocal(a, b, fastlsa.Options{
		Matrix: fastlsa.DNASimple, Gap: fastlsa.Linear(-4), Workers: 1,
	})
	if err != nil {
		panic(err)
	}
	fmt.Printf("score %d at a[%d:%d]\n", loc.Score, loc.StartA, loc.EndA)
	// Output: score 40 at a[4:12]
}

func ExampleAlign_overlap() {
	// The suffix of a overlaps the prefix of b.
	a, _ := fastlsa.NewSequence("a", "TTTTTTACGTACGT", fastlsa.DNA)
	b, _ := fastlsa.NewSequence("b", "ACGTACGTGGGGGG", fastlsa.DNA)
	al, err := fastlsa.Align(a, b, fastlsa.Options{
		Matrix: fastlsa.DNASimple, Gap: fastlsa.Linear(-12),
		Mode: fastlsa.ModeOverlap, Workers: 1,
	})
	if err != nil {
		panic(err)
	}
	fmt.Println(al.Score) // 8 overlapping matches * 5
	// Output: 40
}
