package fleet

import (
	_ "embed"
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"time"

	"juggler/internal/jsonschema"
	"juggler/internal/packet"
	"juggler/internal/stats"
)

//go:embed fleet.schema.json
var schemaJSON []byte

// reportSchema names the report format; bump on breaking field changes.
const reportSchema = "juggler-fleet-report/v1"

// Health score weights: the score is virtual nanoseconds of p99 sojourn
// plus fixed penalties per bad event, so healthier hosts score lower and
// the arithmetic is exact integer math (byte-stable JSON).
const (
	scorePerDrop       = 1_000_000 // 1ms per dropped segment
	scorePerBurnWindow = 250_000   // 250us per burned SLO window
	scorePerRetransmit = 10_000    // 10us per retransmission
	scorePerHold       = 1_000     // 1us per reorder-induced hold
)

// HostHealth is one host's row in the report, ranked worst-first.
type HostHealth struct {
	Name      string `json:"name"`
	ToR       int    `json:"tor"`
	Score     int64  `json:"score"`
	Straggler bool   `json:"straggler"`

	SojournP50Ns  int64 `json:"sojourn_p50_ns"`
	SojournP99Ns  int64 `json:"sojourn_p99_ns"`
	SojournP999Ns int64 `json:"sojourn_p999_ns"`
	SojournMaxNs  int64 `json:"sojourn_max_ns"`
	Samples       int64 `json:"samples"`

	DeliveredBytes int64 `json:"delivered_bytes"`
	DeliveredSegs  int64 `json:"delivered_segs"`
	DeliveredPkts  int64 `json:"delivered_pkts"`

	PeakBufferedBytes int64 `json:"peak_buffered_bytes"`
	PeakTableFlows    int64 `json:"peak_table_flows"`
	SegPoolLive       int64 `json:"segpool_live"`
	Retunes           int64 `json:"retunes"`
	Retransmissions   int64 `json:"retransmissions"`
	OfoHolds          int64 `json:"ofo_holds"`
	Drops             int64 `json:"drops"`

	SLOWindows     int64 `json:"slo_windows"`
	SLOBurnWindows int64 `json:"slo_burn_windows"`
	SLOViolations  int64 `json:"slo_violations"`
	Deliveries     int64 `json:"deliveries"`
}

// Rollup is a merged sketch view at some aggregation level (ToR, fleet).
type Rollup struct {
	Hosts          int   `json:"hosts"`
	SojournP50Ns   int64 `json:"sojourn_p50_ns"`
	SojournP99Ns   int64 `json:"sojourn_p99_ns"`
	SojournP999Ns  int64 `json:"sojourn_p999_ns"`
	SojournMaxNs   int64 `json:"sojourn_max_ns"`
	Samples        int64 `json:"samples"`
	DeliveredBytes int64 `json:"delivered_bytes"`
	DeliveredSegs  int64 `json:"delivered_segs"`
	DeliveredPkts  int64 `json:"delivered_pkts"`
	PktsPerSec     int64 `json:"pkts_per_sec"`
	Drops          int64 `json:"drops"`
	SLOBurnWindows int64 `json:"slo_burn_windows"`
}

// ReportTopEntry is one heavy hitter with its resolved label.
type ReportTopEntry struct {
	Label string `json:"label"`
	Count int64  `json:"count"`
	Err   int64  `json:"err"`
}

// ToRRollup is one ToR's merged view.
type ToRRollup struct {
	ToR int `json:"tor"`
	Rollup
}

// Report is the deterministic cluster health report. All quantities are
// integers (nanoseconds, bytes, counts): encoding/json renders them
// byte-stably, so same-seed runs produce identical files at any -j.
type Report struct {
	Schema      string `json:"schema"`
	DurationNs  int64  `json:"duration_ns"`
	CadenceNs   int64  `json:"cadence_ns"`
	SLONs       int64  `json:"slo_ns"`
	FleetHealth string `json:"fleet_health"` // "healthy" | "degraded"

	Fleet Rollup       `json:"fleet"`
	ToRs  []ToRRollup  `json:"tors"`
	Hosts []HostHealth `json:"hosts"` // ranked worst-first

	FCTP50Ns  int64 `json:"fct_p50_ns"`
	FCTP99Ns  int64 `json:"fct_p99_ns"`
	FCTP999Ns int64 `json:"fct_p999_ns"`
	FCTCount  int64 `json:"fct_count"`

	TopFlowsByBytes       []ReportTopEntry `json:"top_flows_by_bytes"`
	TopHostsByRetransmits []ReportTopEntry `json:"top_hosts_by_retransmits"`
	TopHostsByHolds       []ReportTopEntry `json:"top_hosts_by_holds"`

	Stragglers []string `json:"stragglers"`
}

// Report merges every probe into the fleet view: lane -> host (queue
// order), host -> ToR and fleet (registration order). now is the
// virtual end-of-run time used for rate math.
func (a *Aggregator) Report(now time.Duration) *Report {
	r := &Report{
		Schema:     reportSchema,
		DurationNs: int64(now),
		CadenceNs:  int64(a.cfg.Cadence),
		SLONs:      int64(a.cfg.SLO),
		Stragglers: []string{},
		ToRs:       []ToRRollup{},
		Hosts:      []HostHealth{},
	}

	var fleetSketch stats.QuantileSketch
	fleetFlows := NewTopK(topK)
	hostsByRetrans := NewTopK(topK)
	hostsByHolds := NewTopK(topK)
	torSketch := map[int]*stats.QuantileSketch{}
	torRoll := map[int]*ToRRollup{}

	for i, h := range a.hosts {
		roll := h.rollup()
		sketch, c := roll.sketch, roll.c
		hh := HostHealth{
			Name: h.Name, ToR: h.ToR,
			SojournP50Ns: sketch.P50(), SojournP99Ns: sketch.P99(),
			SojournP999Ns: sketch.P999(), SojournMaxNs: sketch.Max(),
			Samples:        sketch.Count(),
			DeliveredBytes: roll.delivBytes, DeliveredSegs: roll.delivSegs,
			DeliveredPkts:     roll.delivPkts,
			PeakBufferedBytes: roll.peakBuffered, PeakTableFlows: roll.peakTable,
			SegPoolLive: c.SegPoolLive, Retunes: c.Retunes,
			Retransmissions: c.Retransmissions, OfoHolds: c.OfoHolds,
			Drops:      c.Drops,
			SLOWindows: roll.windows, SLOBurnWindows: roll.burnWindows,
			SLOViolations: roll.sloViolations, Deliveries: roll.delivSegs,
		}
		hh.Score = hh.SojournP99Ns +
			scorePerDrop*hh.Drops +
			scorePerBurnWindow*hh.SLOBurnWindows +
			scorePerRetransmit*hh.Retransmissions +
			scorePerHold*hh.OfoHolds
		r.Hosts = append(r.Hosts, hh)

		fleetSketch.Merge(&sketch)
		fleetFlows.Merge(roll.flows)
		hostsByRetrans.Observe(uint64(i), packet.FiveTuple{}, c.Retransmissions)
		hostsByHolds.Observe(uint64(i), packet.FiveTuple{}, c.OfoHolds)
		ts, ok := torSketch[h.ToR]
		if !ok {
			ts = &stats.QuantileSketch{}
			torSketch[h.ToR] = ts
			torRoll[h.ToR] = &ToRRollup{ToR: h.ToR}
		}
		ts.Merge(&sketch)
		tr := torRoll[h.ToR]
		tr.Hosts++
		tr.DeliveredBytes += roll.delivBytes
		tr.DeliveredSegs += roll.delivSegs
		tr.DeliveredPkts += roll.delivPkts
		tr.Drops += c.Drops
		tr.SLOBurnWindows += roll.burnWindows
	}

	fleetP99 := fleetSketch.P99()
	r.Fleet = Rollup{
		Hosts:        len(a.hosts),
		SojournP50Ns: fleetSketch.P50(), SojournP99Ns: fleetP99,
		SojournP999Ns: fleetSketch.P999(), SojournMaxNs: fleetSketch.Max(),
		Samples: fleetSketch.Count(),
	}
	for _, hh := range r.Hosts {
		r.Fleet.DeliveredBytes += hh.DeliveredBytes
		r.Fleet.DeliveredSegs += hh.DeliveredSegs
		r.Fleet.DeliveredPkts += hh.DeliveredPkts
		r.Fleet.Drops += hh.Drops
		r.Fleet.SLOBurnWindows += hh.SLOBurnWindows
	}
	if r.DurationNs > 0 {
		r.Fleet.PktsPerSec = r.Fleet.DeliveredPkts * int64(time.Second) / r.DurationNs
	}

	tors := make([]int, 0, len(torRoll))
	for t := range torRoll {
		tors = append(tors, t)
	}
	sort.Ints(tors)
	for _, t := range tors {
		tr := torRoll[t]
		ts := torSketch[t]
		tr.SojournP50Ns, tr.SojournP99Ns = ts.P50(), ts.P99()
		tr.SojournP999Ns, tr.SojournMaxNs = ts.P999(), ts.Max()
		tr.Samples = ts.Count()
		if r.DurationNs > 0 {
			tr.PktsPerSec = tr.DeliveredPkts * int64(time.Second) / r.DurationNs
		}
		r.ToRs = append(r.ToRs, *tr)
	}

	// Straggler detection: a host whose own tail diverges from the
	// fleet merge. Flag order follows the ranked host order below.
	for i := range r.Hosts {
		hh := &r.Hosts[i]
		if hh.Samples >= stragglerMinSamples &&
			hh.SojournP99Ns*100 > fleetP99*stragglerPct {
			hh.Straggler = true
		}
	}

	// Rank worst-first: score desc, then name asc for full determinism.
	sort.SliceStable(r.Hosts, func(i, j int) bool {
		if r.Hosts[i].Score != r.Hosts[j].Score {
			return r.Hosts[i].Score > r.Hosts[j].Score
		}
		return r.Hosts[i].Name < r.Hosts[j].Name
	})
	for _, hh := range r.Hosts {
		if hh.Straggler {
			r.Stragglers = append(r.Stragglers, hh.Name)
		}
	}

	r.FCTP50Ns, r.FCTP99Ns, r.FCTP999Ns = a.fct.P50(), a.fct.P99(), a.fct.P999()
	r.FCTCount = a.fct.Count()

	r.TopFlowsByBytes = renderTop(fleetFlows, func(e TopEntry) string {
		return e.Tuple.String()
	})
	r.TopHostsByRetransmits = renderTop(hostsByRetrans, a.hostLabel)
	r.TopHostsByHolds = renderTop(hostsByHolds, a.hostLabel)

	r.FleetHealth = "healthy"
	if len(r.Stragglers) > 0 || r.Fleet.SLOBurnWindows > 0 || r.Fleet.Drops > 0 {
		r.FleetHealth = "degraded"
	}
	return r
}

func (a *Aggregator) hostLabel(e TopEntry) string {
	if int(e.Key) < len(a.hosts) {
		return a.hosts[e.Key].Name
	}
	return fmt.Sprintf("host#%d", e.Key)
}

func renderTop(t *TopK, label func(TopEntry) string) []ReportTopEntry {
	out := []ReportTopEntry{}
	for _, e := range t.Entries() {
		if e.Count == 0 {
			continue
		}
		out = append(out, ReportTopEntry{Label: label(e), Count: e.Count, Err: e.Err})
	}
	return out
}

// WriteJSON writes the report as indented, byte-stable JSON.
func (r *Report) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(r)
}

// Validate checks serialized report bytes against the embedded schema;
// returns schema violations (empty = valid).
func Validate(data []byte) ([]string, error) {
	sch, err := jsonschema.Compile(schemaJSON)
	if err != nil {
		return nil, err
	}
	return sch.ValidateBytes(data), nil
}

// Fprint renders the ranked host-health table.
func (r *Report) Fprint(w io.Writer) {
	fmt.Fprintf(w, "== fleet health: %s — %d hosts, %d ToRs, %s of virtual time ==\n",
		r.FleetHealth, r.Fleet.Hosts, len(r.ToRs), time.Duration(r.DurationNs))
	fmt.Fprintf(w, "fleet sojourn p50/p99/p999: %s / %s / %s   delivered %d pkts (%d pkts/s), %d drops, %d burned SLO windows\n",
		time.Duration(r.Fleet.SojournP50Ns), time.Duration(r.Fleet.SojournP99Ns),
		time.Duration(r.Fleet.SojournP999Ns), r.Fleet.DeliveredPkts,
		r.Fleet.PktsPerSec, r.Fleet.Drops, r.Fleet.SLOBurnWindows)
	if r.FCTCount > 0 {
		fmt.Fprintf(w, "fleet FCT p50/p99/p999: %s / %s / %s over %d completions\n",
			time.Duration(r.FCTP50Ns), time.Duration(r.FCTP99Ns),
			time.Duration(r.FCTP999Ns), r.FCTCount)
	}
	fmt.Fprintf(w, "\n%-4s %-10s %3s %12s %12s %12s %8s %7s %6s %6s %5s %s\n",
		"rank", "host", "tor", "p50", "p99", "p999", "MB", "burn", "rtx", "holds", "drops", "flags")
	for i, h := range r.Hosts {
		flags := ""
		if h.Straggler {
			flags = "STRAGGLER"
		}
		fmt.Fprintf(w, "%-4d %-10s %3d %12s %12s %12s %8.1f %7d %6d %6d %5d %s\n",
			i+1, h.Name, h.ToR,
			time.Duration(h.SojournP50Ns), time.Duration(h.SojournP99Ns),
			time.Duration(h.SojournP999Ns),
			float64(h.DeliveredBytes)/1e6,
			h.SLOBurnWindows, h.Retransmissions, h.OfoHolds, h.Drops, flags)
	}
	if len(r.TopFlowsByBytes) > 0 {
		fmt.Fprintf(w, "\ntop flows by bytes:\n")
		for _, e := range r.TopFlowsByBytes {
			fmt.Fprintf(w, "  %-40s %12d (±%d)\n", e.Label, e.Count, e.Err)
		}
	}
	if len(r.Stragglers) > 0 {
		fmt.Fprintf(w, "\nstragglers: %v\n", r.Stragglers)
	}
}
