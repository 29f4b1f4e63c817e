// Package replay parses the textual packet-trace format and replays it
// through a standalone Juggler (Run) for juggler-doctor -replay.
//
// Format: one packet per line,
//
//	<time> <flow> <seq> <len> [flags]
//
// where <time> is an offset like 12us or 1.5ms, <flow> is any label,
// <seq>/<len> are byte offsets/counts, and [flags] is an optional
// combination of P (PSH), F (FIN), A (pure ACK, len ignored). Blank lines
// and lines starting with '#' are skipped.
//
// A recorded run (juggler-doctor -record) may interleave telemetry record
// lines:
//
//	ev <time> <layer> <op> <flow> <seq> <n> [cause=<cause>] [note]
//
// Ops are decoded forward-compatibly: an op name this build does not know
// is preserved verbatim (Event.Known=false) and tallied in
// Trace.UnknownOps instead of being silently dropped, so a newer
// recorder's output still replays — with its forensics surfaced — on an
// older toolchain. The cause token is optional: lines written before it
// existed parse with an empty Event.Cause.
package replay

import (
	"bufio"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"
	"time"

	"juggler/internal/packet"
	"juggler/internal/telemetry"
)

// TimedPacket is one parsed trace line.
type TimedPacket struct {
	At  time.Duration
	Pkt packet.Packet
}

// Event is one telemetry record line from a recorded run. Layer and Op
// are kept as strings so ops minted by newer builds survive the round
// trip; Known reports whether this build's telemetry package recognizes
// the op.
type Event struct {
	At    time.Duration
	Layer string
	Op    string
	Flow  string
	Seq   uint32
	N     int64
	Cause string
	Note  string
	Known bool
}

// Trace is a parsed packet trace plus the label<->tuple mapping used to
// render flow names back the way the input spelled them, plus any
// recorded telemetry events.
type Trace struct {
	Packets []TimedPacket

	// Events are the recorded run's telemetry events in file order.
	Events []Event
	// UnknownOps tallies record ops this build does not know.
	UnknownOps map[string]int64

	ids   map[string]packet.FiveTuple
	names map[packet.FiveTuple]string
}

// ParseFile parses the trace at path; one with neither packets nor
// events is an error.
func ParseFile(path string) (*Trace, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	t, err := Parse(f)
	if err != nil {
		return nil, err
	}
	if len(t.Packets) == 0 && len(t.Events) == 0 {
		return nil, fmt.Errorf("empty trace %s", path)
	}
	return t, nil
}

// Parse reads the trace format described in the package comment.
func Parse(r io.Reader) (*Trace, error) {
	t := &Trace{
		ids:   map[string]packet.FiveTuple{},
		names: map[packet.FiveTuple]string{},
	}
	sc := bufio.NewScanner(r)
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		fields := strings.Fields(line)
		if fields[0] == "ev" {
			if err := t.parseEvent(fields, lineNo); err != nil {
				return nil, err
			}
			continue
		}
		if len(fields) < 4 {
			return nil, fmt.Errorf("line %d: want <time> <flow> <seq> <len> [flags]", lineNo)
		}
		at, err := time.ParseDuration(fields[0])
		if err != nil {
			return nil, fmt.Errorf("line %d: bad time %q: %v", lineNo, fields[0], err)
		}
		seq, err := strconv.ParseUint(fields[2], 10, 32)
		if err != nil {
			return nil, fmt.Errorf("line %d: bad seq %q", lineNo, fields[2])
		}
		n, err := strconv.Atoi(fields[3])
		if err != nil || n < 0 {
			return nil, fmt.Errorf("line %d: bad len %q", lineNo, fields[3])
		}
		p := packet.Packet{
			Flow: t.flowFor(fields[1]), Seq: uint32(seq), PayloadLen: n,
			Flags: packet.FlagACK,
		}
		if len(fields) > 4 {
			for _, c := range fields[4] {
				switch c {
				case 'P':
					p.Flags |= packet.FlagPSH
				case 'F':
					p.Flags |= packet.FlagFIN
				case 'A':
					p.PayloadLen = 0
				default:
					return nil, fmt.Errorf("line %d: unknown flag %q", lineNo, c)
				}
			}
		}
		t.Packets = append(t.Packets, TimedPacket{At: at, Pkt: p})
	}
	return t, sc.Err()
}

// parseEvent decodes one "ev" line (see the package comment). Unknown
// ops are preserved, not rejected.
func (t *Trace) parseEvent(fields []string, lineNo int) error {
	if len(fields) < 7 {
		return fmt.Errorf("line %d: want ev <time> <layer> <op> <flow> <seq> <n> [cause=<cause>] [note]", lineNo)
	}
	at, err := time.ParseDuration(fields[1])
	if err != nil {
		return fmt.Errorf("line %d: bad event time %q: %v", lineNo, fields[1], err)
	}
	seq, err := strconv.ParseUint(fields[5], 10, 32)
	if err != nil {
		return fmt.Errorf("line %d: bad event seq %q", lineNo, fields[5])
	}
	n, err := strconv.ParseInt(fields[6], 10, 64)
	if err != nil {
		return fmt.Errorf("line %d: bad event n %q", lineNo, fields[6])
	}
	rest := fields[7:]
	var cause string
	if len(rest) > 0 {
		if c, ok := strings.CutPrefix(rest[0], "cause="); ok {
			cause, rest = c, rest[1:]
		}
	}
	e := Event{At: at, Layer: fields[2], Op: fields[3], Flow: fields[4],
		Seq: uint32(seq), N: n, Cause: cause, Note: strings.Join(rest, " ")}
	_, e.Known = telemetry.OpByName(e.Op)
	if !e.Known {
		if t.UnknownOps == nil {
			t.UnknownOps = map[string]int64{}
		}
		t.UnknownOps[e.Op]++
	}
	t.Events = append(t.Events, e)
	return nil
}

// flowFor maps a label to a synthetic five-tuple, deterministically in
// first-appearance order.
func (t *Trace) flowFor(label string) packet.FiveTuple {
	if ft, ok := t.ids[label]; ok {
		return ft
	}
	ft := packet.FiveTuple{
		SrcIP: 0x0a000001, DstIP: 0x0a000002,
		SrcPort: uint16(20000 + len(t.ids)), DstPort: 5001,
		Proto: packet.ProtoTCP,
	}
	t.ids[label] = ft
	t.names[ft] = label
	return ft
}

// FlowName renders a tuple back as the input's label when known.
func (t *Trace) FlowName(ft packet.FiveTuple) string {
	if n, ok := t.names[ft]; ok {
		return n
	}
	return ft.String()
}

// Last returns the arrival time of the latest packet.
func (t *Trace) Last() time.Duration {
	var last time.Duration
	for _, tp := range t.Packets {
		if tp.At > last {
			last = tp.At
		}
	}
	return last
}
