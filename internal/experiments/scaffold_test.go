package experiments

import (
	"math"
	"reflect"
	"testing"
	"time"

	"juggler/internal/testbed"
	"juggler/internal/units"
)

// TestWindowTalliesAdd: on two runs of one seed, the tally over
// [warm, warm+dur] equals the sum of the tallies over its two halves,
// field for field. So opening a window does not perturb the run, and the
// subtraction covers every counter. The CPU gauges, restarted at each
// open, must average the same way.
func TestWindowTalliesAdd(t *testing.T) {
	o := Options{Seed: 1, Quick: true}
	// Reordering, 0.1% drops and an ofo_timeout below τ: holes fill, holes
	// expire, and the sender retransmits.
	r := netfpgaRun{tau: 250 * time.Microsecond, jcfg: jugglerAt(units.Rate10G, 100*time.Microsecond),
		kind: testbed.OffloadJuggler, dropProb: 0.001, coalesce: coalesceTimeBound()}
	const warm, dur = 40 * time.Millisecond, 120 * time.Millisecond
	s, w := netfpgaBulk(o, r)
	whole := measure(o, s, warm, dur, w)[0]
	s, w = netfpgaBulk(o, r)
	first := measure(o, s, warm, dur/2, w)[0]
	second := measure(o, s, 0, dur/2, w)[0]

	got, a, b := counts(whole), counts(first), counts(second)
	for name, v := range got {
		if v != a[name]+b[name] {
			t.Errorf("%s: %d over the window, %d + %d over its halves", name, v, a[name], b[name])
		}
	}
	// A counter that stays 0 cannot show a missing subtraction.
	for _, name := range []string{"Elapsed", "Bytes", "Segs", "OOO", "Acks", "Retrans",
		"Offload.Packets", "Offload.Segments", "Offload.OOOWork", "Juggler.FlushEvent",
		"Juggler.FlushOfoTimeout", "Juggler.Retransmissions", "Juggler.OfoTimeouts"} {
		if got[name] == 0 {
			t.Errorf("%s is 0 over the window", name)
		}
	}
	for _, g := range []struct {
		name        string
		whole, a, b float64
	}{
		{"RXUtil", whole.RXUtil, first.RXUtil, second.RXUtil},
		{"RXMaxUtil", whole.RXMaxUtil, first.RXMaxUtil, second.RXMaxUtil},
		{"AppUtil", whole.AppUtil, first.AppUtil, second.AppUtil},
	} {
		if g.whole <= 0 || math.Abs(g.whole-(g.a+g.b)/2) > 1e-9*g.whole {
			t.Errorf("%s: %v over the window, %v and %v over its halves", g.name, g.whole, g.a, g.b)
		}
	}
}

// counts flattens a tally's integer fields, keyed by dotted field name.
func counts(t tally) map[string]int64 {
	out := map[string]int64{}
	var walk func(prefix string, v reflect.Value)
	walk = func(prefix string, v reflect.Value) {
		for i := range v.NumField() {
			name := prefix + v.Type().Field(i).Name
			switch f := v.Field(i); f.Kind() {
			case reflect.Struct:
				walk(name+".", f)
			case reflect.Float64:
			default:
				out[name] = f.Int()
			}
		}
	}
	walk("", reflect.ValueOf(t))
	return out
}
