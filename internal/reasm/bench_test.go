package reasm

import (
	"testing"

	"juggler/internal/packet"
)

// BenchmarkReasmBackends times one churn round (two in-sequence inserts, a
// displaced pair, then pops back to empty) per backend — the head-to-head
// wall-clock comparison the bakeoff experiment leaves out. One op is a
// 4-packet round, so ns/pkt is ns/op divided by 4.
func BenchmarkReasmBackends(b *testing.B) {
	for _, k := range Kinds() {
		b.Run(k.String(), func(b *testing.B) {
			pool := &packet.SegPool{}
			q := New(k, pool)
			cycle := backendCycle(q, pool)
			for i := 0; i < 8; i++ {
				cycle()
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				cycle()
			}
		})
	}
}
