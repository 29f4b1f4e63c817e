package experiments

import (
	"reflect"
	"testing"
	"time"
)

// TestAdaptiveRecoversFromSkewShift is the headline claim of the adapt
// subsystem: after the fabric's delay bound shifts past the provisioned
// ofo_timeout, the self-tuning stack recovers its goodput while the static
// stack keeps leaking reordering to TCP. Quick mode keeps it test-sized.
func TestAdaptiveRecoversFromSkewShift(t *testing.T) {
	if testing.Short() {
		t.Skip("adaptive scenario skipped in -short mode")
	}
	o := Options{Seed: 1, Quick: true}
	st := runAdaptive(o, false)
	ad := runAdaptive(o, true)

	if st.PreGbps < 5 || ad.PreGbps < 5 {
		t.Fatalf("pre-shift goodput too low to measure: static %.2f, adaptive %.2f Gb/s",
			st.PreGbps, ad.PreGbps)
	}

	// The static stack must degrade (that is the point of the shift)...
	if st.ConvGbps > 0.5*st.PreGbps {
		t.Errorf("static stack kept %.2f of %.2f Gb/s after the shift; scenario has no teeth",
			st.ConvGbps, st.PreGbps)
	}
	// ...and the adaptive stack must recover most of it back.
	recovery := ad.ConvGbps / ad.PreGbps
	if recovery < 0.5 {
		t.Errorf("adaptive stack recovered only %.0f%% of pre-shift goodput", 100*recovery)
	}
	if ad.ConvGbps < 3*st.ConvGbps {
		t.Errorf("adaptive converged goodput %.2f not clearly above static %.2f",
			ad.ConvGbps, st.ConvGbps)
	}

	// Stability: once converged, the control loop must not oscillate — the
	// phase-flap watchdog is the oracle.
	if ad.FlapsConv != 0 {
		t.Errorf("adaptive stack flapped %d times inside the converged window", ad.FlapsConv)
	}

	// The controller must actually have moved ofo_timeout over the new skew
	// bound, via a nonzero number of retunes; the static stack must not.
	if ad.Retunes == 0 {
		t.Error("adaptive run recorded no retunes")
	}
	if ad.FinalOfo <= adaptTau2 {
		t.Errorf("adaptive final ofo %v does not cover the post-shift skew bound %v",
			ad.FinalOfo, adaptTau2)
	}
	if max := time.Duration(2 * time.Millisecond); ad.FinalOfo >= max {
		t.Errorf("adaptive final ofo %v pinned at/over the %v ceiling", ad.FinalOfo, max)
	}
	if st.Retunes != 0 || st.FinalOfo != adaptStaticOfo {
		t.Errorf("static run retuned: %d retunes, final ofo %v", st.Retunes, st.FinalOfo)
	}

	// The adaptive stack should leak fewer out-of-order segments to TCP.
	if ad.OOOSegs >= st.OOOSegs {
		t.Errorf("adaptive leaked %d OOO segments, static %d", ad.OOOSegs, st.OOOSegs)
	}
}

// TestAdaptiveSweepDeterministic: the registered experiment must emit
// byte-identical rows regardless of sweep parallelism — each point owns its
// simulation and results commit by index.
func TestAdaptiveSweepDeterministic(t *testing.T) {
	if testing.Short() {
		t.Skip("adaptive determinism check skipped in -short mode")
	}
	o := Options{Seed: 1, Quick: true}
	o.Workers = 1
	t1 := adaptiveSweep(o)
	o.Workers = 8
	t8 := adaptiveSweep(o)
	if !reflect.DeepEqual(t1.Rows, t8.Rows) {
		t.Fatalf("rows differ across -j widths:\n-j1: %v\n-j8: %v", t1.Rows, t8.Rows)
	}
}
