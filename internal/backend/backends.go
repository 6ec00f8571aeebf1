package backend

import (
	"math"

	"fastlsa/internal/core"
	"fastlsa/internal/fm"
	"fastlsa/internal/hirschberg"
	"fastlsa/internal/obs"
	"fastlsa/internal/seq"
	"fastlsa/internal/wfa"
)

// The built-in backends, registered in the order the facade's Algorithm
// enum expects. Each adapter returns exactly what its engine returns when
// called directly (pinned by the equivalence tests in the root package).
func init() {
	Register(Info{
		Name:    NameFastLSA,
		Aliases: []string{"lsa"},
		Summary: "FastLSA k-row grid cache (the paper's algorithm); plans to the memory budget under auto",
		Impl:    fastlsaBackend{},
	})
	Register(Info{
		Name:    NameFullMatrix,
		Aliases: []string{"full-matrix", "nw", "needleman-wunsch"},
		Summary: "Needleman-Wunsch full matrix; wavefront-parallel (FastLSA's parallel Base Case over the whole matrix) under either gap model",
		Impl:    fmBackend{},
	})
	Register(Info{
		Name:    NameHirschberg,
		Aliases: []string{"mm", "myers-miller"},
		Summary: "Hirschberg divide-and-conquer (Myers-Miller under affine gaps), linear space",
		Impl:    hirschbergBackend{},
	})
	Register(Info{
		Name:    NameCompact,
		Aliases: []string{"fm-bits", "traceback-bits"},
		Summary: "full matrix with traceback bits (paper §2.1), one eighth the footprint; linear gaps only",
		Impl:    compactBackend{},
	})
	Register(Info{
		Name:    NameWFA,
		Aliases: []string{"wavefront"},
		Summary: "bidirectional wavefront alignment (BiWFA), O(ns) time and O(s) memory on low-divergence pairs; uniform match/mismatch matrices only",
		Impl:    wfaBackend{},
	})
}

type fastlsaBackend struct{}

func (fastlsaBackend) Name() string { return NameFastLSA }

func (fastlsaBackend) Caps() Capabilities {
	return Capabilities{EndsFree: true, AffineGaps: true, LinearSpace: true, Parallel: true, PlansToBudget: true}
}

func (fastlsaBackend) Align(a, b *seq.Sequence, req Request) (fm.Result, error) {
	copt, err := CoreOptions(req, a.Len(), b.Len())
	if err != nil {
		return fm.Result{}, err
	}
	return core.AlignMode(a, b, req.Matrix, req.Gap, req.Mode, copt)
}

func (fastlsaBackend) AlignLocal(a, b *seq.Sequence, req Request) (fm.LocalResult, error) {
	copt, err := CoreOptions(req, a.Len(), b.Len())
	if err != nil {
		return fm.LocalResult{}, err
	}
	return core.AlignLocal(a, b, req.Matrix, req.Gap, copt)
}

type fmBackend struct{}

func (fmBackend) Name() string { return NameFullMatrix }

func (fmBackend) Caps() Capabilities {
	return Capabilities{EndsFree: true, AffineGaps: true, Parallel: true}
}

func (fmBackend) Align(a, b *seq.Sequence, req Request) (fm.Result, error) {
	budget, err := req.Budget()
	if err != nil {
		return fm.Result{}, err
	}
	if req.Workers > 1 && req.Mode.IsGlobal() {
		// Parallel FM is FastLSA's parallel Base Case over the whole matrix:
		// a Base Case buffer of (m+1)(n+1) entries makes the root direct.
		// Its phases stay out of FastLSA's totals, as sequential fm runs do.
		whole := min(int64(a.Len()+1)*int64(b.Len()+1), math.MaxInt)
		return core.Align(a, b, req.Matrix, req.Gap, core.Options{
			BaseCells: max(int(whole), core.MinBaseCells), Workers: req.Workers,
			Budget: budget, Counters: req.Counters, Obs: obs.Nested(),
		})
	}
	return fm.AlignMode(a, b, req.Matrix, req.Gap, req.Mode, budget, req.Counters)
}

func (fmBackend) AlignLocal(a, b *seq.Sequence, req Request) (fm.LocalResult, error) {
	budget, err := req.Budget()
	if err != nil {
		return fm.LocalResult{}, err
	}
	return fm.AlignLocal(a, b, req.Matrix, req.Gap, budget, req.Counters)
}

type hirschbergBackend struct{}

func (hirschbergBackend) Name() string { return NameHirschberg }

func (hirschbergBackend) Caps() Capabilities {
	return Capabilities{AffineGaps: true, LinearSpace: true}
}

func (hirschbergBackend) Align(a, b *seq.Sequence, req Request) (fm.Result, error) {
	budget, err := req.Budget()
	if err != nil {
		return fm.Result{}, err
	}
	return hirschberg.Align(a, b, req.Matrix, req.Gap, hirschberg.Options{BaseCells: req.BaseCells}, budget, req.Counters)
}

type compactBackend struct{}

func (compactBackend) Name() string { return NameCompact }

func (compactBackend) Caps() Capabilities {
	return Capabilities{}
}

func (compactBackend) Align(a, b *seq.Sequence, req Request) (fm.Result, error) {
	budget, err := req.Budget()
	if err != nil {
		return fm.Result{}, err
	}
	return fm.AlignCompact(a, b, req.Matrix, req.Gap, budget, req.Counters)
}

type wfaBackend struct{}

func (wfaBackend) Name() string { return NameWFA }

func (wfaBackend) Caps() Capabilities {
	return Capabilities{AffineGaps: true, LinearSpace: true, UniformScoresOnly: true}
}

func (wfaBackend) Align(a, b *seq.Sequence, req Request) (fm.Result, error) {
	budget, err := req.Budget()
	if err != nil {
		return fm.Result{}, err
	}
	// BiAlign is the bidirectional (meet-in-the-middle) mode: same scores
	// and an equally optimal path as the unidirectional kernel, but O(s)
	// memory instead of the O(s²) retained wavefront history.
	return wfa.BiAlign(a, b, req.Matrix, req.Gap, wfa.Options{
		Budget:   budget,
		Counters: req.Counters,
		Obs:      req.Obs,
	})
}
