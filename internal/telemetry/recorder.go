package telemetry

import (
	"fmt"
	"io"
	"strings"
)

// Recorder is the bounded flight recorder: a ring of the most recent
// events, plus per-layer offered counts so coverage checks (how many layers
// actually emitted?) survive ring rotation.
type Recorder struct {
	events ring[Event]

	// Total counts events offered, including those rotated out.
	Total int64

	// ByLayer counts offered events per layer, unaffected by capacity.
	ByLayer [numLayers]int64
	// ByKind counts offered events per kind, unaffected by capacity.
	ByKind [numKinds]int64
}

func newRecorder(cap int) *Recorder {
	return &Recorder{events: newRing[Event](cap)}
}

func (r *Recorder) add(e Event) {
	r.Total++
	r.ByLayer[e.Layer]++
	r.ByKind[e.Kind]++
	r.events.push(&e)
}

// Len returns the number of retained events.
func (r *Recorder) Len() int {
	if r == nil {
		return 0
	}
	return r.events.len()
}

// Events returns retained events oldest first.
func (r *Recorder) Events() []Event {
	if r == nil {
		return nil
	}
	return r.events.items()
}

// Layers returns how many distinct layers have offered at least one event.
func (r *Recorder) Layers() int {
	if r == nil {
		return 0
	}
	n := 0
	for _, c := range r.ByLayer {
		if c > 0 {
			n++
		}
	}
	return n
}

// Dump writes a readable timeline of the retained events.
func (r *Recorder) Dump(w io.Writer) {
	for _, e := range r.Events() {
		fmt.Fprintf(w, "%12v  %-6s %-10s  %v seq=%d n=%d %s\n",
			e.At, e.Layer, e.Kind, e.Flow, e.Seq, e.N, e.Note)
	}
}

// WriteEvents exports the retained events as "ev" lines of the recorded-
// run text format consumed by internal/replay:
//
//	ev <time> <layer> <kind> <flow> <seq> <n> [note]
//
// Kinds and layers are written as their String() names, so parsers built
// before a kind existed can still carry it through (forward-compatible
// decoding). Output is oldest-first and byte-identical across same-seed
// runs.
func (r *Recorder) WriteEvents(w io.Writer) error {
	if r == nil {
		return nil
	}
	if _, err := fmt.Fprintf(w, "# recorded run: %d events retained of %d offered\n",
		r.Len(), r.Total); err != nil {
		return err
	}
	for _, e := range r.Events() {
		if _, err := fmt.Fprintf(w, "ev %v %s %s %v %d %d", e.At.Sub(0), e.Layer, e.Kind,
			e.Flow, e.Seq, e.N); err != nil {
			return err
		}
		if e.Note != "" {
			if _, err := fmt.Fprintf(w, " %s", e.Note); err != nil {
				return err
			}
		}
		if _, err := fmt.Fprintln(w); err != nil {
			return err
		}
	}
	return nil
}

// Summary aggregates retained events by kind, in kind order ("flush=12
// buffer=3 ..."), matching the format of the old trace.Ring summary.
func (r *Recorder) Summary() string {
	var counts [numKinds]int
	if r != nil {
		for _, e := range r.Events() {
			counts[e.Kind]++
		}
	}
	var parts []string
	for k := Kind(0); k < numKinds; k++ {
		if c := counts[k]; c > 0 {
			parts = append(parts, fmt.Sprintf("%s=%d", k, c))
		}
	}
	if len(parts) == 0 {
		return "(no events)"
	}
	return strings.Join(parts, " ")
}
