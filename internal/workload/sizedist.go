package workload

import "math/rand"

// SizeDist samples message sizes in bytes. Implementations must be
// deterministic given the supplied RNG.
type SizeDist interface {
	// Sample draws one size (>= 1).
	Sample(rng *rand.Rand) int
}

// Uniform draws uniformly from [Lo, Hi].
type Uniform struct {
	Lo, Hi int
}

// Sample implements SizeDist.
func (u Uniform) Sample(rng *rand.Rand) int {
	if u.Hi <= u.Lo {
		return u.Lo
	}
	return u.Lo + rng.Intn(u.Hi-u.Lo+1)
}
