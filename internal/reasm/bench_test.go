package reasm

import (
	"testing"

	"juggler/internal/packet"
)

// BenchmarkSegList times one churn round: two in-sequence inserts, a
// displaced pair, then pops back to empty. One op is a 4-packet round, so
// ns/pkt is ns/op divided by 4.
func BenchmarkSegList(b *testing.B) {
	pool := &packet.SegPool{}
	q := New(KindSegList, pool)
	cycle := churnCycle(q, pool)
	for i := 0; i < 8; i++ {
		cycle()
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		cycle()
	}
}
