package dis

// Decoded reports how many instructions the traversals that built r
// decoded.
func Decoded(r *Result) int { return r.decoded }
