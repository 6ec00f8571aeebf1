package core_test

import (
	"testing"

	"fastlsa/internal/core"
	"fastlsa/internal/scoring"
	"fastlsa/internal/seq"
)

func TestAlignLocalHomologousCore(t *testing.T) {
	gap := scoring.Linear(-4)
	m := scoring.DNASimple
	// A conserved island inside unrelated flanks.
	island := seq.Random("island", 150, seq.DNA, 901).String()
	a := seq.MustNew("a", seq.Random("fa", 200, seq.DNA, 902).String()+island+seq.Random("fb", 200, seq.DNA, 903).String(), seq.DNA)
	b := seq.MustNew("b", seq.Random("fc", 100, seq.DNA, 904).String()+island+seq.Random("fd", 300, seq.DNA, 905).String(), seq.DNA)
	res, err := core.AlignLocal(a, b, m, gap, core.Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	if res.Score < int64(150*5*9/10) {
		t.Fatalf("local score %d too low for a 150-residue identical island", res.Score)
	}
	if res.EndA-res.StartA < 140 || res.EndB-res.StartB < 140 {
		t.Fatalf("island not recovered: a[%d:%d] b[%d:%d]", res.StartA, res.EndA, res.StartB, res.EndB)
	}
}

func TestAlignLocalNoPositive(t *testing.T) {
	a := seq.MustNew("a", "AAAA", seq.DNA)
	b := seq.MustNew("b", "TTTT", seq.DNA)
	res, err := core.AlignLocal(a, b, scoring.DNASimple, scoring.Linear(-4), core.Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	if res.Score != 0 || res.Path.Len() != 0 {
		t.Fatalf("expected empty result, got %+v", res)
	}
}
