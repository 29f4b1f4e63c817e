package telemetry

import (
	"fmt"
	"io"
	"strconv"
	"strings"
)

// WriteTrace writes the flight recorder as Chrome trace-event JSON, the
// format Perfetto (ui.perfetto.dev) and chrome://tracing load directly.
//
// Mapping: each stack layer becomes a "process" (pid = layer+1) and each
// registered track a "thread" (tid = track+1) within it, so the Perfetto
// timeline groups events by layer with one row per NIC queue / port / flow
// track. Point records are emitted as instants (ph "i"), with a "cause"
// arg when the record is a decision; OpCwnd, which samples a level, is a
// natural counter series and is emitted as ph "C" so Perfetto draws it as
// an area chart.
//
// The JSON is assembled by hand rather than encoding/json so field order —
// and therefore the exported bytes — are deterministic.
func (k *Sink) WriteTrace(w io.Writer) error {
	if k == nil {
		return nil
	}
	bw := &strings.Builder{}
	bw.WriteString("{\"traceEvents\":[\n")

	events := k.Recorder.Records()

	// Metadata: name every (layer, track) pair that appears, in stable
	// layer-then-track order.
	var used [numLayers]map[int32]bool
	for _, e := range events {
		if used[e.Layer] == nil {
			used[e.Layer] = make(map[int32]bool)
		}
		used[e.Layer][e.Track] = true
	}
	first := true
	emit := func(line string) {
		if !first {
			bw.WriteString(",\n")
		}
		first = false
		bw.WriteString(line)
	}
	for l := Layer(0); l < numLayers; l++ {
		if used[l] == nil {
			continue
		}
		emit(fmt.Sprintf(`{"ph":"M","pid":%d,"name":"process_name","args":{"name":%q}}`,
			int(l)+1, l.String()))
		for t := int32(0); t < int32(len(k.tracks)); t++ {
			if !used[l][t] {
				continue
			}
			emit(fmt.Sprintf(`{"ph":"M","pid":%d,"tid":%d,"name":"thread_name","args":{"name":%q}}`,
				int(l)+1, int(t)+1, k.TrackName(t)))
		}
	}

	for _, e := range events {
		ts := strconv.FormatFloat(float64(e.At)/1e3, 'f', 3, 64) // ns -> us
		pid, tid := int(e.Layer)+1, int(e.Track)+1
		if e.Op == OpCwnd {
			// Counter series: one line per sample, named by op+track.
			emit(fmt.Sprintf(`{"ph":"C","pid":%d,"tid":%d,"ts":%s,"name":"%s:%s","args":{"bytes":%d}}`,
				pid, tid, ts, e.Op, k.TrackName(e.Track), e.N))
			continue
		}
		cause := ""
		if e.Cause != "" {
			cause = fmt.Sprintf(`,"cause":%q`, e.Cause)
		}
		emit(fmt.Sprintf(`{"ph":"i","s":"t","pid":%d,"tid":%d,"ts":%s,"name":%q,"args":{"flow":%q,"seq":%d,"n":%d,"note":%q%s}}`,
			pid, tid, ts, e.Op.String(), e.Flow.String(), e.Seq, e.N, e.Note, cause))
	}

	bw.WriteString("\n],\"displayTimeUnit\":\"ns\"}\n")
	_, err := io.WriteString(w, bw.String())
	return err
}
