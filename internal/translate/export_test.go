package translate

import "github.com/eurosys26p57/chimera/internal/riscv"

// The per-idiom matchers, for the reference scan in the external tests.
var (
	MatchDotLoop       = matchDotLoop
	MatchAxpyLoop      = matchAxpyLoop
	MatchShadd         = matchShadd
	MatchVectorDotLoop = matchVectorDotLoop
)

// IdiomMatcher is the per-idiom matcher signature.
type IdiomMatcher = func(is []riscv.Inst, addrs []uint64) (UpgradeSite, bool)
