package telemetry

import (
	"fmt"
	"io"
	"slices"
	"strings"
)

// Recorder is the bounded flight recorder: a ring of the most recent
// records, plus per-layer and per-op offered counts so coverage checks
// (how many layers actually recorded?) survive ring rotation.
type Recorder struct {
	records ring[Record]

	// Total counts records offered, including those rotated out.
	Total int64

	// ByLayer counts offered records per layer, unaffected by capacity.
	ByLayer [numLayers]int64
	// ByOp counts offered records per op, unaffected by capacity.
	ByOp [NumOps]int64
}

func newRecorder(cap int) *Recorder {
	return &Recorder{records: newRing[Record](cap)}
}

func (r *Recorder) add(rec *Record) {
	r.Total++
	r.ByLayer[rec.Layer]++
	r.ByOp[rec.Op]++
	r.records.push(rec)
}

// Len returns the number of retained records.
func (r *Recorder) Len() int {
	if r == nil {
		return 0
	}
	return r.records.len()
}

// Records returns retained records oldest first.
func (r *Recorder) Records() []Record {
	if r == nil {
		return nil
	}
	return r.records.items()
}

// Layers returns how many distinct layers have offered at least one record.
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

// last returns at most n of the newest retained records that keep
// accepts, oldest first: the forensics views are filters over the one
// store.
func (r *Recorder) last(n int, keep func(*Record) bool) []Record {
	var out []Record
	for i := r.Len() - 1; i >= 0 && len(out) < n; i-- {
		if rec := r.records.at(i); keep(rec) {
			out = append(out, *rec)
		}
	}
	slices.Reverse(out)
	return out
}

// WriteEvents exports the retained records as "ev" lines of the recorded-
// run text format consumed by internal/replay:
//
//	ev <time> <layer> <op> <flow> <seq> <n> [cause=<cause>] [note]
//
// Ops and layers are written as their String() names, so parsers built
// before an op existed can still carry it through (forward-compatible
// decoding); a parser that predates the cause token reads it as note
// text. Output is oldest-first and byte-identical across same-seed runs.
func (r *Recorder) WriteEvents(w io.Writer) error {
	if r == nil {
		return nil
	}
	if _, err := fmt.Fprintf(w, "# recorded run: %d events retained of %d offered\n",
		r.Len(), r.Total); err != nil {
		return err
	}
	for _, e := range r.Records() {
		if _, err := fmt.Fprintf(w, "ev %v %s %s %v %d %d", e.At.Sub(0), e.Layer, e.Op,
			e.Flow, e.Seq, e.N); err != nil {
			return err
		}
		if e.Cause != "" {
			if _, err := fmt.Fprintf(w, " cause=%s", e.Cause); err != nil {
				return err
			}
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

// Summary aggregates retained records by op, in op order ("flush=12
// buffer=3 ...").
func (r *Recorder) Summary() string {
	var counts [NumOps]int
	for i := r.Len() - 1; i >= 0; i-- {
		counts[r.records.at(i).Op]++
	}
	var parts []string
	for o := Op(0); int(o) < NumOps; o++ {
		if c := counts[o]; c > 0 {
			parts = append(parts, fmt.Sprintf("%s=%d", o, c))
		}
	}
	if len(parts) == 0 {
		return "(no events)"
	}
	return strings.Join(parts, " ")
}
