package telemetry

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"time"
)

// DiagnosisMeta identifies the run a diagnosis describes.
type DiagnosisMeta struct {
	Scenario  string
	Stack     string
	Seed      int64
	Intensity float64
	// StampSample is the hop-stamp sampling rate the run used (1-in-N;
	// 1 = every packet stamped, the exact default).
	StampSample int
}

// SpanReport aggregates one sojourn span (or the end-to-end total) for the
// diagnosis. All durations are integer nanoseconds so same-seed reports
// marshal byte-identically.
type SpanReport struct {
	Span       string  `json:"span"`
	Count      int64   `json:"count"`
	TotalNs    int64   `json:"total_ns"`
	MeanNs     int64   `json:"mean_ns"`
	MaxNs      int64   `json:"max_ns"`
	SharePct   float64 `json:"share_pct"`
	DominantIn int64   `json:"dominant_in"`
}

// CauseCount is one decision cause tally.
type CauseCount struct {
	Cause string `json:"cause"`
	Count int64  `json:"count"`
}

// OpReport tallies one decision op with its cause breakdown.
type OpReport struct {
	Op     string       `json:"op"`
	Total  int64        `json:"total"`
	Causes []CauseCount `json:"causes,omitempty"`
}

// AnomalyReport is one watchdog finding in the diagnosis.
type AnomalyReport struct {
	AtNs  int64  `json:"at_ns"`
	Kind  string `json:"kind"`
	Flow  string `json:"flow,omitempty"`
	Value int64  `json:"value"`
	Limit int64  `json:"limit"`
	Note  string `json:"note,omitempty"`
}

// SpanNs is one labeled duration inside a slow-delivery breakdown.
type SpanNs struct {
	Span string `json:"span"`
	Ns   int64  `json:"ns"`
}

// SlowReport is one slowest-delivery leaderboard entry.
type SlowReport struct {
	AtNs  int64    `json:"at_ns"`
	Flow  string   `json:"flow"`
	Seq   uint32   `json:"seq"`
	E2ENs int64    `json:"e2e_ns"`
	Spans []SpanNs `json:"spans"`
}

// DecisionReport is one audit-ring decision in the diagnosis.
type DecisionReport struct {
	AtNs    int64  `json:"at_ns"`
	Layer   string `json:"layer"`
	Op      string `json:"op"`
	Cause   string `json:"cause,omitempty"`
	Seq     uint32 `json:"seq"`
	EndSeq  uint32 `json:"end_seq"`
	SeqNext uint32 `json:"seq_next"`
	Hole    bool   `json:"hole"`
	HoleSeq uint32 `json:"hole_seq,omitempty"`
	QPkts   int64  `json:"q_pkts"`
	QBytes  int64  `json:"q_bytes"`
	N       int64  `json:"n"`
	Note    string `json:"note,omitempty"`
}

// FlowSpanShare is one span's share of a flow's latency.
type FlowSpanShare struct {
	Span     string  `json:"span"`
	TotalNs  int64   `json:"total_ns"`
	SharePct float64 `json:"share_pct"`
}

// FlowReport is one flow's diagnosis: where its latency went and what the
// datapath decided about it.
type FlowReport struct {
	Index            int              `json:"index"`
	Flow             string           `json:"flow"`
	Delivered        int64            `json:"delivered"`
	E2ETotalNs       int64            `json:"e2e_total_ns"`
	E2EMeanNs        int64            `json:"e2e_mean_ns"`
	DominantSpan     string           `json:"dominant_span,omitempty"`
	DominantSharePct float64          `json:"dominant_share_pct"`
	Spans            []FlowSpanShare  `json:"spans,omitempty"`
	Decisions        int64            `json:"decisions"`
	Ops              []OpReport       `json:"ops,omitempty"`
	LastDecisions    []DecisionReport `json:"last_decisions,omitempty"`
}

// Diagnosis is the doctor's aggregated forensic report for one run. It is
// built only from virtual-time state, so same-seed runs produce
// byte-identical JSON at any sweep width.
type Diagnosis struct {
	Tool      string  `json:"tool"`
	Scenario  string  `json:"scenario"`
	Stack     string  `json:"stack"`
	Seed      int64   `json:"seed"`
	Intensity float64 `json:"intensity"`
	// StampSample is the 1-in-N hop-stamp sampling rate of the run: with
	// N > 1 the latency-attribution and per-packet decision sections are
	// built from the sampled subset (counts scale by ~1/N) while flow
	// phase state, anomalies and timeout records remain exact.
	StampSample int64        `json:"stamp_sample"`
	Verdict     string       `json:"verdict"`
	Delivered   int64        `json:"delivered_segments"`
	EndToEnd    SpanReport   `json:"end_to_end"`
	Spans       []SpanReport `json:"spans"`
	Slowest     []SlowReport `json:"slowest,omitempty"`
	Decisions   []OpReport   `json:"decisions,omitempty"`
	// Retunes excerpts the host-scoped decision ring: the adapt
	// controller's knob changes, oldest first (RetuneTotal is exact even
	// when the ring rotated).
	RetuneTotal        int64            `json:"retune_total,omitempty"`
	Retunes            []DecisionReport `json:"retunes,omitempty"`
	TruncatedFlows     int64            `json:"truncated_decisions"`
	AnomalyTotal       int64            `json:"anomaly_total"`
	Anomalies          []AnomalyReport  `json:"anomalies,omitempty"`
	Flows              []FlowReport     `json:"flows,omitempty"`
	FlowsOmitted       int              `json:"flows_omitted"`
	RecorderEvents     int64            `json:"recorder_events"`
	RecorderSummary    string           `json:"recorder_summary,omitempty"`
	RecordedEventKinds []CauseCount     `json:"recorded_event_kinds,omitempty"`
	UnknownEventKinds  []CauseCount     `json:"unknown_event_kinds,omitempty"`
}

// diagnosisFlowCap bounds the per-flow sections of a report so 100k-flow
// runs stay readable; FlowsOmitted records the clip.
const diagnosisFlowCap = 32

// lastDecisionCap bounds the audit-ring excerpt per flow report.
const lastDecisionCap = 8

// retuneReportCap bounds the host-scoped retune excerpt.
const retuneReportCap = 32

// Diagnose aggregates the sink's forensic state into a Diagnosis.
func (k *Sink) Diagnose(meta DiagnosisMeta) *Diagnosis {
	d := &Diagnosis{
		Tool:        "juggler-doctor",
		Scenario:    meta.Scenario,
		Stack:       meta.Stack,
		Seed:        meta.Seed,
		Intensity:   meta.Intensity,
		StampSample: int64(meta.StampSample),
		Verdict:     "clean",
	}
	if d.StampSample < 1 {
		d.StampSample = 1
	}
	if k == nil {
		return d
	}
	d.RecorderEvents = k.Recorder.Total
	d.RecorderSummary = k.Recorder.Summary()
	f := k.Forensics
	if f == nil {
		return d
	}
	if f.AnomalyTotal() > 0 {
		d.Verdict = "anomalous"
	}
	d.Delivered = f.Delivered()
	d.TruncatedFlows = f.TruncatedDecisions
	d.AnomalyTotal = f.AnomalyTotal()

	e2eTotal := f.e2e.Sum()
	d.EndToEnd = SpanReport{Span: "end-to-end", Count: f.e2e.Count(),
		TotalNs: e2eTotal, MeanNs: mean(e2eTotal, f.e2e.Count()),
		MaxNs: f.e2eMax, SharePct: pct(e2eTotal, e2eTotal)}
	for i := 0; i < NumSpans; i++ {
		h := f.spanHist[i]
		d.Spans = append(d.Spans, SpanReport{Span: spanNames[i], Count: h.Count(),
			TotalNs: h.Sum(), MeanNs: mean(h.Sum(), h.Count()), MaxNs: f.spanMax[i],
			SharePct: pct(h.Sum(), e2eTotal), DominantIn: f.spanDom[i]})
	}

	for _, s := range f.Slowest() {
		sr := SlowReport{AtNs: int64(s.At), Flow: s.Flow.String(), Seq: s.Seq, E2ENs: s.E2ENs}
		for i := 0; i < NumSpans; i++ {
			sr.Spans = append(sr.Spans, SpanNs{Span: spanNames[i], Ns: s.Spans[i]})
		}
		d.Slowest = append(d.Slowest, sr)
	}

	for op := 0; op < NumOps; op++ {
		if f.opTotal[op] == 0 {
			continue
		}
		d.Decisions = append(d.Decisions, opReport(Op(op), f.opTotal[op], f.causes[op]))
	}

	d.RetuneTotal = f.GlobalTotal
	retunes := f.GlobalDecisions()
	if len(retunes) > retuneReportCap {
		retunes = retunes[len(retunes)-retuneReportCap:]
	}
	for _, dec := range retunes {
		d.Retunes = append(d.Retunes, DecisionReport{
			AtNs: int64(dec.At), Layer: dec.Layer.String(), Op: dec.Op.String(),
			Cause: dec.Cause, N: dec.N, Note: dec.Note})
	}

	for _, a := range f.Anomalies() {
		ar := AnomalyReport{AtNs: int64(a.At), Kind: a.Kind, Value: a.Value,
			Limit: a.Limit, Note: a.Note}
		if a.HasFlow {
			ar.Flow = a.Flow.String()
		}
		d.Anomalies = append(d.Anomalies, ar)
	}

	flows := f.Flows()
	for _, fe := range flows {
		if len(d.Flows) >= diagnosisFlowCap {
			d.FlowsOmitted = len(flows) - diagnosisFlowCap
			break
		}
		d.Flows = append(d.Flows, flowReport(fe))
	}
	return d
}

// opReport builds one op tally with causes sorted by descending count,
// then cause name — deterministic regardless of first-seen order.
func opReport(op Op, total int64, causes []CauseCount) OpReport {
	r := OpReport{Op: op.String(), Total: total}
	r.Causes = append(r.Causes, causes...)
	sort.Slice(r.Causes, func(i, j int) bool {
		if r.Causes[i].Count != r.Causes[j].Count {
			return r.Causes[i].Count > r.Causes[j].Count
		}
		return r.Causes[i].Cause < r.Causes[j].Cause
	})
	return r
}

func flowReport(fe *FlowForensics) FlowReport {
	r := FlowReport{Index: fe.Index, Flow: fe.Flow.String(), Delivered: fe.Delivered,
		E2ETotalNs: fe.E2ENs, E2EMeanNs: mean(fe.E2ENs, fe.Delivered),
		Decisions: fe.Total}
	dom := -1
	for i := 0; i < NumSpans; i++ {
		if fe.SpanNs[i] == 0 {
			continue
		}
		r.Spans = append(r.Spans, FlowSpanShare{Span: spanNames[i],
			TotalNs: fe.SpanNs[i], SharePct: pct(fe.SpanNs[i], fe.E2ENs)})
		if dom < 0 || fe.SpanNs[i] > fe.SpanNs[dom] {
			dom = i
		}
	}
	if dom >= 0 {
		r.DominantSpan = spanNames[dom]
		r.DominantSharePct = pct(fe.SpanNs[dom], fe.E2ENs)
	}
	for op := 0; op < NumOps; op++ {
		if fe.ByOp[op] != 0 {
			r.Ops = append(r.Ops, OpReport{Op: Op(op).String(), Total: fe.ByOp[op]})
		}
	}
	decs := fe.Decisions()
	if len(decs) > lastDecisionCap {
		decs = decs[len(decs)-lastDecisionCap:]
	}
	for _, dec := range decs {
		r.LastDecisions = append(r.LastDecisions, DecisionReport{
			AtNs: int64(dec.At), Layer: dec.Layer.String(), Op: dec.Op.String(),
			Cause: dec.Cause, Seq: dec.Seq, EndSeq: dec.EndSeq, SeqNext: dec.SeqNext,
			Hole: dec.Hole, HoleSeq: dec.HoleSeq, QPkts: dec.QPkts, QBytes: dec.QBytes,
			N: dec.N, Note: dec.Note})
	}
	return r
}

func mean(sum, n int64) int64 {
	if n == 0 {
		return 0
	}
	return sum / n
}

func pct(part, whole int64) float64 {
	if whole == 0 {
		return 0
	}
	return 100 * float64(part) / float64(whole)
}

// WriteJSON marshals the diagnosis with stable field order and 2-space
// indentation (same-seed reports are byte-identical).
func (d *Diagnosis) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(d)
}

// Fprint renders the human-readable diagnosis.
func (d *Diagnosis) Fprint(w io.Writer) {
	fmt.Fprintf(w, "== juggler-doctor: scenario %s, stack %s, seed %d", d.Scenario, d.Stack, d.Seed)
	if d.Intensity != 0 {
		fmt.Fprintf(w, ", intensity %g", d.Intensity)
	}
	fmt.Fprintf(w, " ==\nverdict: %s (%d anomalies)\n", d.Verdict, d.AnomalyTotal)
	fmt.Fprintf(w, "deliveries: %d segments, end-to-end mean %v (max %v)\n",
		d.Delivered, time.Duration(d.EndToEnd.MeanNs), time.Duration(d.EndToEnd.MaxNs))

	if len(d.Spans) > 0 {
		fmt.Fprintf(w, "\nlatency attribution (share of end-to-end %v total):\n",
			time.Duration(d.EndToEnd.TotalNs))
		for _, s := range d.Spans {
			if s.Count == 0 {
				continue
			}
			fmt.Fprintf(w, "  %-9s %5.1f%%  mean %-10v max %-10v dominant in %d deliveries\n",
				s.Span, s.SharePct, time.Duration(s.MeanNs), time.Duration(s.MaxNs), s.DominantIn)
		}
	}

	if len(d.Decisions) > 0 {
		fmt.Fprintf(w, "\ndecisions:\n")
		for _, op := range d.Decisions {
			fmt.Fprintf(w, "  %-8s %6d", op.Op, op.Total)
			for i, c := range op.Causes {
				if i == 0 {
					fmt.Fprintf(w, "  (")
				} else {
					fmt.Fprintf(w, ", ")
				}
				fmt.Fprintf(w, "%s %d", c.Cause, c.Count)
			}
			if len(op.Causes) > 0 {
				fmt.Fprintf(w, ")")
			}
			fmt.Fprintln(w)
		}
	}

	if len(d.Retunes) > 0 {
		fmt.Fprintf(w, "\ncontroller retunes (%d total, %d shown):\n", d.RetuneTotal, len(d.Retunes))
		for _, r := range d.Retunes {
			fmt.Fprintf(w, "  %-12v %-6s %s -> %v\n",
				time.Duration(r.AtNs), r.Cause, r.Note, time.Duration(r.N))
		}
	}

	if len(d.Anomalies) > 0 {
		fmt.Fprintf(w, "\nanomalies (%d total, %d shown):\n", d.AnomalyTotal, len(d.Anomalies))
		for _, a := range d.Anomalies {
			fmt.Fprintf(w, "  %-12v %-15s", time.Duration(a.AtNs), a.Kind)
			if a.Flow != "" {
				fmt.Fprintf(w, " flow %s", a.Flow)
			}
			fmt.Fprintf(w, " value %d > limit %d", a.Value, a.Limit)
			if a.Note != "" {
				fmt.Fprintf(w, " (%s)", a.Note)
			}
			fmt.Fprintln(w)
		}
	}

	if len(d.Slowest) > 0 {
		fmt.Fprintf(w, "\nslowest deliveries:\n")
		for _, s := range d.Slowest {
			fmt.Fprintf(w, "  %-12v flow %s seq %d: e2e %v (", time.Duration(s.AtNs), s.Flow, s.Seq, time.Duration(s.E2ENs))
			first := true
			for _, sp := range s.Spans {
				if sp.Ns == 0 {
					continue
				}
				if !first {
					fmt.Fprintf(w, ", ")
				}
				first = false
				fmt.Fprintf(w, "%s %v", sp.Span, time.Duration(sp.Ns))
			}
			fmt.Fprintln(w, ")")
		}
	}

	if len(d.Flows) > 0 {
		fmt.Fprintf(w, "\nper-flow forensics:\n")
		for _, fr := range d.Flows {
			fmt.Fprintf(w, "  flow %d (%s): %d deliveries", fr.Index, fr.Flow, fr.Delivered)
			if fr.DominantSpan != "" {
				fmt.Fprintf(w, ", %.1f%% of latency in %s", fr.DominantSharePct, fr.DominantSpan)
			}
			for _, op := range fr.Ops {
				fmt.Fprintf(w, ", %d %s", op.Total, plural(op.Op, op.Total))
			}
			fmt.Fprintln(w)
		}
		if d.FlowsOmitted > 0 {
			fmt.Fprintf(w, "  (%d more flows omitted)\n", d.FlowsOmitted)
		}
	}
	if len(d.RecordedEventKinds) > 0 {
		fmt.Fprintf(w, "\nrecorded run events by kind:\n")
		for _, u := range d.RecordedEventKinds {
			fmt.Fprintf(w, "  %s: %d events\n", u.Cause, u.Count)
		}
	}
	if len(d.UnknownEventKinds) > 0 {
		fmt.Fprintf(w, "\nunknown event kinds in recorded run (decoded forward-compatibly):\n")
		for _, u := range d.UnknownEventKinds {
			fmt.Fprintf(w, "  %s: %d events\n", u.Cause, u.Count)
		}
	}
}

// plural renders op tallies readably ("12 evictions", "3 flushes").
func plural(op string, n int64) string {
	if n == 1 {
		return op
	}
	switch op {
	case "flush":
		return "flushes"
	case "phase":
		return "phase transitions"
	case "evict":
		return "evictions"
	case "timeout":
		return "timeouts"
	case "pass":
		return "passes"
	case "retune":
		return "retunes"
	}
	return op + "s"
}
