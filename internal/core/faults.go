package core

import "fastlsa/internal/fault"

// Fault-injection points on the DP fill paths (see internal/fault and
// docs/RESILIENCE.md). Disarmed they cost one atomic load per hit — the
// core zero-alloc guard in fault_injection_test.go pins that.
var (
	// siteFillTile strikes at the start of every parallel wavefront tile
	// (fill-cache blocks and parallel base-case tiles alike): an injected
	// panic here rehearses the §5 failure mode the wavefront substrate must
	// survive — the run fails, the lane scheduler drains, every budget
	// reservation is released.
	siteFillTile = fault.NewSite("core.fillTile")
	// siteBaseCase strikes at the start of every base-case solve, sequential
	// or parallel.
	siteBaseCase = fault.NewSite("core.baseCase")
)
