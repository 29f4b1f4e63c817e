package experiments

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"regexp"
	"runtime"
	"slices"
	"strings"
	"sync/atomic"
	"testing"

	"juggler/internal/golden"
	"juggler/internal/sim"
)

func TestTableAddArityPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	tb := &Table{ID: "x", Columns: []string{"a", "b"}}
	tb.Add("only-one")
}

func TestTableRendering(t *testing.T) {
	tb := &Table{ID: "x", Title: "T", Columns: []string{"col", "value"}}
	tb.Add("row1", "1")
	tb.Add("longer-row", "2")
	tb.Note("a note with %d", 42)
	var sb strings.Builder
	tb.Fprint(&sb)
	out := sb.String()
	for _, want := range []string{"== x: T ==", "longer-row", "note: a note with 42"} {
		if !strings.Contains(out, want) {
			t.Fatalf("missing %q in:\n%s", want, out)
		}
	}
}

func TestTableValues(t *testing.T) {
	tb := &Table{ID: "x", Columns: []string{"key", "share", "ratio"}}
	tb.Add("a", "12.5%", "1.41x")
	tb.Add("b", "7", "n/a")
	if v, err := tb.Values("share"); err != nil || !slices.Equal(v, []float64{12.5, 7}) {
		t.Fatalf("Values(share) = %v, %v", v, err)
	}
	if v, err := tb.Values("ratio", "a"); err != nil || !slices.Equal(v, []float64{1.41}) {
		t.Fatalf("Values(ratio, a) = %v, %v", v, err)
	}
	// An unknown column, an unknown row and a non-number are lookup errors.
	for _, q := range [][]string{{"nope"}, {"share", "c"}, {"ratio", "b"}} {
		if _, err := tb.Values(q[0], q[1:]...); !errors.Is(err, errLookup) {
			t.Errorf("Values(%q) error = %v, want errLookup", q, err)
		}
	}
}

// quickRun is every ID's -quick table of one seed, and how many times each
// ID's run called the AttachTelemetry hook.
type quickRun struct {
	tables map[string]*Table
	traced map[string]int32
}

// quickRuns memoises quick(): the registry renders once per test process
// and seed.
var quickRuns = map[int64]quickRun{}

// quick renders every ID's -quick table of a seed: serially on seed 1
// (TestAllExperimentsRunQuick's reference tables), on runtime.NumCPU()
// workers on any other seed. Each run carries a counting hook.
func quick(seed int64) quickRun {
	if r, ok := quickRuns[seed]; ok {
		return r
	}
	o := Options{Seed: seed, Quick: true}
	if seed != 1 {
		o.Workers = runtime.NumCPU()
	}
	r := quickRun{map[string]*Table{}, map[string]int32{}}
	for _, id := range IDs() {
		r.tables[id], r.traced[id] = runCounted(id, o)
	}
	quickRuns[seed] = r
	return r
}

// runCounted runs id with an AttachTelemetry hook that installs no sink,
// so the table is the untraced one, and returns how many times the hook
// ran. The traced-point contract is exactly once: on the last point of a
// sweep, at any width.
func runCounted(id string, o Options) (*Table, int32) {
	var n atomic.Int32
	o.AttachTelemetry = func(*sim.Sim) { n.Add(1) }
	t := Run(id, o)
	return t, n.Load()
}

// TestAllExperimentsRunQuick renders every registered experiment in quick
// mode twice — serially, then at `-j 8` (8 sweep workers, and 8 lanes for
// shardedrx) — and requires byte-identical rendered tables: the
// width-independence contract of internal/sweep and the sharded datapath,
// checked for every ID. Both runs carry a counting AttachTelemetry hook,
// which each ID must call exactly once (the traced-point contract). It is
// the one writer of EXPERIMENTS.md's generated blocks: each serial table,
// with its Shape, is rendered into its block and the document is checked
// through golden.Check, so UPDATE_GOLDEN=1 rewrites the blocks and nothing
// else; TestPaperShapes checks the shapes. Skipped under -short.
func TestAllExperimentsRunQuick(t *testing.T) {
	if testing.Short() {
		t.Skip("quick experiment sweep skipped in -short mode")
	}
	doc, bs := docBlocks(t)
	wide := Options{Seed: 1, Quick: true, Workers: 8}
	serial := quick(1)
	text := map[string]string{}
	for _, id := range IDs() {
		tb := serial.tables[id]
		if tb == nil || len(tb.Rows) == 0 {
			t.Fatalf("experiment %s produced no rows", id)
		}
		for _, row := range tb.Rows {
			if len(row) != len(tb.Columns) {
				t.Fatalf("%s: ragged row %v", id, row)
			}
		}
		wt, wn := runCounted(id, wide)
		if sn := serial.traced[id]; sn != 1 || wn != 1 {
			t.Errorf("%s called AttachTelemetry %d times serially and %d times at -j 8; want once each", id, sn, wn)
		}
		var s, w bytes.Buffer
		tb.Fprint(&s)
		wt.Fprint(&w)
		if !bytes.Equal(s.Bytes(), w.Bytes()) {
			t.Errorf("%s differs between -j 1 and -j 8:\n--- serial ---\n%s--- wide ---\n%s", id, s.Bytes(), w.Bytes())
		}
		text[id] = "```\n" + s.String() + "```\n\n" + renderShape(id)
	}
	golden.Check(t, docPath, splice(doc, bs, text))
}

// TestRegistryComplete checks the registry against EXPERIMENTS.md without
// running anything, so it runs under -short: every registered ID has a
// description, a Shape and exactly one generated block, no block names an
// unknown ID, and each block's Shape lines equal renderShape's, so a
// changed claim or Known entry fails here until the blocks are
// regenerated. Outside the blocks no paragraph starts with "Measured" and
// no line gives a verdict: measurements and verdicts are generated, never
// typed. It follows TestAllExperimentsRunQuick so that a regenerating run
// checks the rewritten document.
func TestRegistryComplete(t *testing.T) {
	doc, bs := docBlocks(t)
	for _, id := range IDs() {
		if Describe(id) == "" {
			t.Errorf("experiment %q lacks a description", id)
		}
		if len(registry[id].shape) == 0 {
			t.Errorf("experiment %q has no Shape", id)
		}
	}
	for _, b := range bs {
		if !strings.HasSuffix(string(doc[b.start:b.end]), renderShape(b.id)) {
			t.Errorf("%s:%d: %s's Shape lines differ from its registered Shape; regenerate with UPDATE_GOLDEN=1 go test ./internal/experiments/",
				docPath, lineOf(doc, b.start), b.id)
		}
	}
	prev, in := "", false
	for i, line := range strings.Split(string(doc), "\n") {
		switch {
		case strings.HasPrefix(line, "<!-- begin generated "):
			in = true
		case strings.HasPrefix(line, "<!-- end generated "):
			in = false
		case !in && (prev == "" || strings.HasPrefix(prev, "#")) && strings.HasPrefix(line, "Measured"):
			t.Errorf("%s:%d: a paragraph starts with %q; measured numbers belong in the generated blocks", docPath, i+1, line)
		case !in && strings.Contains(line, "**Shape:"):
			t.Errorf("%s:%d: a Shape verdict outside the generated blocks: %q", docPath, i+1, line)
		}
		prev = line
	}
	if Run("bogus", Options{Seed: 1}) != nil {
		t.Error("unknown id should return nil")
	}
}

// TestPaperShapes checks every claim of every registered Shape on the
// -quick tables of each of shapeSeeds, one subtest per
// <id>/<claim>/seed<N>. A failure listed as known passes and logs the
// deviation it names, unless the table lacks the cells the claim reads; a
// known failure that passes fails, so that it is promoted rather than left
// to rot. Skipped under -short.
func TestPaperShapes(t *testing.T) {
	if testing.Short() {
		t.Skip("quick experiment sweep skipped in -short mode")
	}
	for _, seed := range shapeSeeds {
		tables := quick(seed).tables
		for _, id := range IDs() {
			for _, c := range registry[id].shape {
				t.Run(fmt.Sprintf("%s/%s/seed%d", id, c.Name, seed), func(t *testing.T) {
					err := c.Check(tables[id])
					dev, known := c.Known[seed]
					switch {
					case err != nil && known && !errors.Is(err, errLookup):
						t.Logf("known failure, deviation %d: %v", dev, err)
					case err != nil:
						t.Errorf("%s: %v", c.Source, err)
					case known:
						t.Errorf("%s: listed as a known failure (deviation %d) but passes: promote it", c.Source, dev)
					}
				})
			}
		}
	}
}

// shapeSeeds are the seeds whose -quick tables TestPaperShapes checks.
var shapeSeeds = []int64{1, 2}

// docPath is the document that holds the generated blocks.
const docPath = "../../EXPERIMENTS.md"

// A block is one generated block of EXPERIMENTS.md: the ID its markers
// name, and the byte span of the text between them, which is id's -quick
// table in a code fence, then renderShape(id).
type block struct {
	id         string
	start, end int
}

var blockMarker = regexp.MustCompile(`(?m)^<!-- (begin|end) generated ([a-z0-9-]+) -->\n`)

// docBlocks reads EXPERIMENTS.md and returns it with its blocks, in
// document order. It fails the test unless the markers pair up and every
// registered ID, and only those, has exactly one block.
func docBlocks(t *testing.T) ([]byte, []block) {
	t.Helper()
	doc, err := os.ReadFile(docPath)
	if err != nil {
		t.Fatal(err)
	}
	var bs []block
	open := false
	for _, m := range blockMarker.FindAllSubmatchIndex(doc, -1) {
		kind, id := string(doc[m[2]:m[3]]), string(doc[m[4]:m[5]])
		switch {
		case kind == "begin" && !open:
			bs, open = append(bs, block{id: id, start: m[1]}), true
		case kind == "end" && open && bs[len(bs)-1].id == id:
			bs[len(bs)-1].end, open = m[0], false
		default:
			t.Fatalf("%s:%d: unpaired %s marker for %s", docPath, lineOf(doc, m[0]), kind, id)
		}
	}
	if open {
		t.Fatalf("%s: the block of %s is never closed", docPath, bs[len(bs)-1].id)
	}
	count := map[string]int{}
	for _, b := range bs {
		count[b.id]++
		if _, ok := registry[b.id]; !ok {
			t.Errorf("%s:%d: a block names unregistered experiment %q", docPath, lineOf(doc, b.start), b.id)
		}
	}
	for _, id := range IDs() {
		if count[id] != 1 {
			t.Errorf("%s has %d blocks for experiment %q; want one, opened by <!-- begin generated %s --> and closed by <!-- end generated %s -->",
				docPath, count[id], id, id, id)
		}
	}
	if t.Failed() {
		t.FailNow()
	}
	return doc, bs
}

// splice returns doc with each block's text replaced by text[id].
func splice(doc []byte, bs []block, text map[string]string) []byte {
	var out []byte
	last := 0
	for _, b := range bs {
		out = append(append(out, doc[last:b.start]...), text[b.id]...)
		last = b.end
	}
	return append(out, doc[last:]...)
}

// lineOf is the 1-based line of doc that byte offset i falls on.
func lineOf(doc []byte, i int) int { return bytes.Count(doc[:i], []byte{'\n'}) + 1 }

// renderShape renders id's Shape for its block: the verdict, "match" when
// no claim is a known failure and otherwise naming each deviation, then
// one line per claim with its name, its source, and for each of
// shapeSeeds and every seed in Known, whether it holds or fails.
func renderShape(id string) string {
	var lines strings.Builder
	var devs []int
	for _, c := range registry[id].shape {
		seeds := slices.Clone(shapeSeeds)
		for seed := range c.Known {
			if !slices.Contains(seeds, seed) {
				seeds = append(seeds, seed)
			}
		}
		slices.Sort(seeds)
		var holds []int64
		var failDevs []int
		fails := map[int][]int64{}
		for _, seed := range seeds {
			d, ok := c.Known[seed]
			if !ok {
				holds = append(holds, seed)
				continue
			}
			if fails[d] == nil {
				failDevs = append(failDevs, d)
			}
			fails[d] = append(fails[d], seed)
		}
		slices.Sort(failDevs)
		var parts []string
		for _, d := range failDevs {
			parts = append(parts, fmt.Sprintf("known failure on %s (deviation %d)", seedList(fails[d]), d))
			if !slices.Contains(devs, d) {
				devs = append(devs, d)
			}
		}
		if holds != nil {
			parts = append(parts, "holds on "+seedList(holds))
		}
		fmt.Fprintf(&lines, "- `%s` (%s): %s.\n", c.Name, c.Source, strings.Join(parts, "; "))
	}
	verdict := "match"
	if slices.Sort(devs); len(devs) == 1 {
		verdict = fmt.Sprintf("known failure (deviation %d)", devs[0])
	} else if len(devs) > 1 {
		verdict = "known failure (deviations " + andList(devs) + ")"
	}
	return "**Shape: " + verdict + ".**\n\n" + lines.String()
}

// seedList names seeds in words: "seed 1", "seeds 1 and 2".
func seedList(seeds []int64) string {
	if len(seeds) == 1 {
		return fmt.Sprintf("seed %d", seeds[0])
	}
	return "seeds " + andList(seeds)
}

// andList joins xs as "1", "1 and 2", "1, 2 and 3".
func andList[T any](xs []T) string {
	s := make([]string, len(xs))
	for i, x := range xs {
		s[i] = fmt.Sprint(x)
	}
	if len(s) == 1 {
		return s[0]
	}
	return strings.Join(s[:len(s)-1], ", ") + " and " + s[len(s)-1]
}
