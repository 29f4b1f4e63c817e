package experiments

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"runtime"
	"slices"
	"strings"
	"sync/atomic"
	"testing"

	"juggler/internal/golden"
	"juggler/internal/sim"
)

// TestRegistryComplete checks the registry against EXPERIMENTS.md: every
// registered ID has a description and a Shape and is documented there, as
// `id` in a heading or in an Ablations table row, and every (`id`) heading
// names a registered experiment. Each ID's section or row carries a
// "**Shape: …**" verdict that is exactly "match" when none of its claims
// is a known failure, and otherwise names each known failure's deviation.
func TestRegistryComplete(t *testing.T) {
	doc, err := os.ReadFile(filepath.Join("..", "..", "EXPERIMENTS.md"))
	if err != nil {
		t.Fatal(err)
	}
	headingID := regexp.MustCompile("\\(`([a-z0-9-]+)`\\)")
	rowID := regexp.MustCompile("^\\| `([a-z0-9-]+)` \\|")
	documented := map[string]bool{}
	text := map[string]string{} // each ID's section, or its Ablations row
	section, cur := "", ""
	for _, line := range strings.Split(string(doc), "\n") {
		if strings.HasPrefix(line, "#") {
			section, cur = line, ""
			for _, m := range headingID.FindAllStringSubmatch(line, -1) {
				documented[m[1]], cur = true, m[1]
				if Describe(m[1]) == "" {
					t.Errorf("EXPERIMENTS.md heading %q names unregistered experiment %q", line, m[1])
				}
			}
		} else if m := rowID.FindStringSubmatch(line); m != nil && section == "### Ablations" {
			documented[m[1]], text[m[1]] = true, line
		} else if cur != "" {
			text[cur] += " " + line
		}
	}
	verdict := regexp.MustCompile(`\*\*Shape: (.*?)\.?\*\*`)
	for _, id := range IDs() {
		if Describe(id) == "" {
			t.Errorf("experiment %q lacks a description", id)
		}
		if !documented[id] {
			t.Errorf("experiment %q has no heading or Ablations row in EXPERIMENTS.md", id)
		}
		devs := map[int]bool{}
		for _, c := range registry[id].shape {
			for _, d := range c.Known {
				devs[d] = true
			}
		}
		m := verdict.FindStringSubmatchIndex(text[id])
		switch {
		case len(registry[id].shape) == 0:
			t.Errorf("experiment %q has no Shape", id)
		case m == nil:
			t.Errorf("EXPERIMENTS.md gives experiment %q no **Shape:** verdict", id)
		case (text[id][m[2]:m[3]] == "match") != (len(devs) == 0):
			t.Errorf("EXPERIMENTS.md: %q's verdict is %q, but its known failures name deviations %v", id, text[id][m[2]:m[3]], devs)
		default:
			for d := range devs {
				if !strings.Contains(text[id][m[0]:], fmt.Sprintf("deviation %d", d)) {
					t.Errorf("EXPERIMENTS.md: %q's verdict does not name deviation %d", id, d)
				}
			}
		}
	}
	if Run("bogus", DefaultOptions()) != nil {
		t.Error("unknown id should return nil")
	}
}

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
// which each ID must call exactly once (the traced-point contract). It
// pins every serial table's bytes to testdata/tables_golden.json;
// TestPaperShapes checks their shapes. Skipped under -short.
func TestAllExperimentsRunQuick(t *testing.T) {
	if testing.Short() {
		t.Skip("quick experiment sweep skipped in -short mode")
	}
	wide := Options{Seed: 1, Quick: true, Workers: 8}
	serial := quick(1)
	prints := map[string]golden.Digest{}
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
		prints[id] = golden.Fingerprint(s.Bytes())
	}
	golden.JSON(t, filepath.Join("testdata", "tables_golden.json"), prints)
}

// TestPaperShapes checks every claim of every registered Shape on the
// -quick tables of seeds 1 and 2, one subtest per <id>/<claim>/seed<N>. A
// failure listed as known passes and logs the deviation it names, unless
// the table lacks the cells the claim reads; a known failure that passes
// fails, so that it is promoted rather than left to rot. Skipped under
// -short.
func TestPaperShapes(t *testing.T) {
	if testing.Short() {
		t.Skip("quick experiment sweep skipped in -short mode")
	}
	for _, seed := range []int64{1, 2} {
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
