package backend

import (
	"fastlsa/internal/align"
	"fastlsa/internal/index"
	"fastlsa/internal/scoring"
	"fastlsa/internal/seq"
	"fastlsa/internal/wfa"
)

// Routing reasons, surfaced through Options.Route, the backend.route trace
// span and the fastlsa_backend_total{backend,reason} metric.
const (
	// ReasonExplicit: the caller forced a backend (Algorithm != AlgoAuto).
	ReasonExplicit = "explicit"
	// ReasonLowDivergence: the q-gram identity estimate cleared
	// RouteIdentityThreshold, so the O(ns) WFA kernel wins.
	ReasonLowDivergence = "low-divergence"
	// ReasonHighDivergence: the identity estimate fell short, so the
	// budget-planned FastLSA engine is the safe choice.
	ReasonHighDivergence = "high-divergence"
	// ReasonIncompatibleScoring: the matrix or gap model has no exact WFA
	// penalty equivalent (wfa.FromScoring).
	ReasonIncompatibleScoring = "incompatible-scoring"
	// ReasonEndsFree: the request asked for an ends-free mode, which only
	// FastLSA serves under auto.
	ReasonEndsFree = "ends-free"
	// ReasonExplicitParams: the caller pinned FastLSA parameters (K or
	// BaseCells), which only make sense on the FastLSA backend.
	ReasonExplicitParams = "explicit-params"
	// ReasonSmallInput: the pair is too short for routing to matter (or for
	// the q-gram estimate to be meaningful).
	ReasonSmallInput = "small-input"
	// ReasonNoEstimate: the divergence could not be estimated, so routing
	// falls back to the engine that is never catastrophically wrong.
	ReasonNoEstimate = "no-estimate"
	// ReasonBudgetFallback: an auto-routed WFA run outgrew the memory
	// budget mid-flight and was rerun on budget-planned FastLSA.
	ReasonBudgetFallback = "budget-fallback"
	// ReasonLocal: an AlgoAuto local alignment, which budget-planned
	// FastLSA serves.
	ReasonLocal = "local"
	// ReasonBanded: an AlgoAuto banded alignment, which only FastLSA
	// (band <= 0) or the fixed band (band > 0) serves.
	ReasonBanded = "banded"
	// ReasonScoreOnly: a score-only call, which runs one kernel sweep and
	// no backend.
	ReasonScoreOnly = "score-only"
)

// RouteIdentityThreshold is the estimated-identity floor for routing to
// WFA under AlgoAuto. BiWFA's time grows with the square of the unit-cost
// distance while FastLSA's mn cost is flat, so the floor sits at the
// measured time crossover: E15 (docs/BACKENDS.md) puts BiWFA ahead at 2%
// divergence (estimates 0.969 at n=3000, 0.973 at n=8000) and behind at 5%
// (0.934, 0.937); interpolating the logged time ratio between those rungs
// crosses 1 at 0.959 and 0.957 in the committed rows (BENCH_E15_BIWFA.json).
// Both engines are linear-space, so time is the only axis.
// ErrBudgetExceeded still falls back to budget-planned FastLSA as the
// safety net (ReasonBudgetFallback).
const RouteIdentityThreshold = 0.96

// MinRouteLen is the per-sequence length floor for WFA routing: below it a
// full DP is microseconds anyway and the q-gram estimate has too few grams
// to mean anything.
const MinRouteLen = 64

// Route is one routing decision: the backend that served a facade call and
// why (fastlsa.RouteInfo).
type Route struct {
	// Backend is the canonical name of the chosen backend ("" for a call
	// that runs no backend: a score-only sweep or a fixed band).
	Backend string `json:"backend"`
	// Reason is one of the Reason* constants.
	Reason string `json:"reason"`
	// Identity is the q-gram identity estimate that drove the decision
	// (0 when no estimate was made).
	Identity float64 `json:"identity,omitempty"`
}

// Decide picks the backend for an AlgoAuto request: WFA for long,
// WFA-compatible, low-divergence global pairs; budget-planned FastLSA for
// everything else. explicitParams reports whether the caller pinned K or
// BaseCells (FastLSA parameters, which force the FastLSA backend).
func Decide(a, b *seq.Sequence, m *scoring.Matrix, gap scoring.Gap, mode align.Mode, explicitParams bool) Route {
	if !mode.IsGlobal() {
		return Route{Backend: NameFastLSA, Reason: ReasonEndsFree}
	}
	if explicitParams {
		return Route{Backend: NameFastLSA, Reason: ReasonExplicitParams}
	}
	if a == nil || b == nil || a.Len() < MinRouteLen || b.Len() < MinRouteLen {
		return Route{Backend: NameFastLSA, Reason: ReasonSmallInput}
	}
	if !wfa.Compatible(m, a.Alphabet, gap) {
		return Route{Backend: NameFastLSA, Reason: ReasonIncompatibleScoring}
	}
	identity, ok := index.EstimateIdentity(a, b, 0)
	if !ok {
		return Route{Backend: NameFastLSA, Reason: ReasonNoEstimate}
	}
	if identity >= RouteIdentityThreshold {
		return Route{Backend: NameWFA, Reason: ReasonLowDivergence, Identity: identity}
	}
	return Route{Backend: NameFastLSA, Reason: ReasonHighDivergence, Identity: identity}
}
