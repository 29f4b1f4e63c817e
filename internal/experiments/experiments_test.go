package experiments

import (
	"bytes"
	"os"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"testing"

	"juggler/internal/golden"
)

// TestRegistryComplete checks the registry against EXPERIMENTS.md: every
// registered ID has a description and is documented there, as `id` in a
// heading or in an Ablations table row, and every (`id`) heading names a
// registered experiment.
func TestRegistryComplete(t *testing.T) {
	doc, err := os.ReadFile(filepath.Join("..", "..", "EXPERIMENTS.md"))
	if err != nil {
		t.Fatal(err)
	}
	headingID := regexp.MustCompile("\\(`([a-z0-9-]+)`\\)")
	rowID := regexp.MustCompile("^\\| `([a-z0-9-]+)` \\|")
	documented := map[string]bool{}
	section := ""
	for _, line := range strings.Split(string(doc), "\n") {
		if strings.HasPrefix(line, "#") {
			section = line
			for _, m := range headingID.FindAllStringSubmatch(line, -1) {
				documented[m[1]] = true
				if Describe(m[1]) == "" {
					t.Errorf("EXPERIMENTS.md heading %q names unregistered experiment %q", line, m[1])
				}
			}
		} else if m := rowID.FindStringSubmatch(line); m != nil && section == "### Ablations" {
			documented[m[1]] = true
		}
	}
	for _, id := range IDs() {
		if Describe(id) == "" {
			t.Errorf("experiment %q lacks a description", id)
		}
		if !documented[id] {
			t.Errorf("experiment %q has no heading or Ablations row in EXPERIMENTS.md", id)
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

// parse extracts a float cell, stripping % suffixes.
func parse(t *testing.T, cell string) float64 {
	t.Helper()
	cell = strings.TrimSuffix(cell, "%")
	v, err := strconv.ParseFloat(cell, 64)
	if err != nil {
		t.Fatalf("unparseable cell %q", cell)
	}
	return v
}

// findRow returns the first row whose leading cells match the prefix.
func findRow(t *testing.T, tb *Table, prefix ...string) []string {
	t.Helper()
	for _, row := range tb.Rows {
		ok := true
		for i, p := range prefix {
			if row[i] != p {
				ok = false
				break
			}
		}
		if ok {
			return row
		}
	}
	t.Fatalf("no row with prefix %v in %s", prefix, tb.ID)
	return nil
}

// TestAllExperimentsRunQuick executes every registered experiment in quick
// mode twice — serially, then at `-j 8` (8 sweep workers, and 8 lanes for
// shardedrx) — and requires byte-identical rendered tables: the
// width-independence contract of internal/sweep and the sharded datapath,
// checked for every ID. It then sanity-checks the headline
// relationships the paper reports on the serial tables, and pins every
// serial table's bytes to testdata/tables_golden.json. Skipped under
// -short.
func TestAllExperimentsRunQuick(t *testing.T) {
	if testing.Short() {
		t.Skip("quick experiment sweep skipped in -short mode")
	}
	serial := Options{Seed: 1, Quick: true}
	wide := serial
	wide.Workers = 8
	tables := map[string]*Table{}
	prints := map[string]golden.Digest{}
	for _, id := range IDs() {
		tb := Run(id, serial)
		if tb == nil || len(tb.Rows) == 0 {
			t.Fatalf("experiment %s produced no rows", id)
		}
		for _, row := range tb.Rows {
			if len(row) != len(tb.Columns) {
				t.Fatalf("%s: ragged row %v", id, row)
			}
		}
		var s, w bytes.Buffer
		tb.Fprint(&s)
		Run(id, wide).Fprint(&w)
		if !bytes.Equal(s.Bytes(), w.Bytes()) {
			t.Errorf("%s differs between -j 1 and -j 8:\n--- serial ---\n%s--- wide ---\n%s", id, s.Bytes(), w.Bytes())
		}
		tables[id] = tb
		prints[id] = golden.Fingerprint(s.Bytes())
	}
	golden.JSON(t, filepath.Join("testdata", "tables_golden.json"), prints)

	// fig9: juggler under reordering holds the target; vanilla does not.
	fig9 := tables["fig9"]
	vr := findRow(t, fig9, "vanilla/reorder (per-packet)")
	jr := findRow(t, fig9, "juggler/reorder (per-packet)")
	if parse(t, vr[3]) > 85 {
		t.Errorf("fig9: vanilla under reordering kept %s of target", vr[3])
	}
	if parse(t, jr[3]) < 90 {
		t.Errorf("fig9: juggler under reordering only %s of target", jr[3])
	}

	// latency: identical medians.
	lat := tables["latency"]
	if lat.Rows[0][1] != lat.Rows[1][1] {
		t.Errorf("latency medians differ: %v vs %v", lat.Rows[0], lat.Rows[1])
	}

	// fig12: batching grows from timeout 0 to 52us+.
	fig12 := tables["fig12"]
	b0 := parse(t, findRow(t, fig12, "250", "0")[2])
	b52 := parse(t, findRow(t, fig12, "250", "52")[2])
	if b52 < b0+10 {
		t.Errorf("fig12: batching %v at 0 -> %v at 52us, expected strong growth", b0, b52)
	}

	// fig13: large ofo_timeout restores line rate for tau=250.
	fig13 := tables["fig13"]
	if got := parse(t, findRow(t, fig13, "250", "800")[2]); got < 8 {
		t.Errorf("fig13: tau=250 ofo=800 only %.2f Gb/s", got)
	}

	// fig18: juggler tracks a 20G guarantee; vanilla sits far below.
	fig18 := tables["fig18"]
	row := findRow(t, fig18, "20.00")
	if jg := parse(t, row[1]); jg < 17 {
		t.Errorf("fig18: juggler achieved %.2f of a 20G guarantee", jg)
	}
	if vg := parse(t, row[3]); vg > 16 {
		t.Errorf("fig18: vanilla achieved %.2f, should be well under the guarantee", vg)
	}

	// fig20: per-packet beats ECMP on small-RPC p99 at 50% load, and is
	// the only policy keeping large-RPC tails bounded at 90% (the 90%
	// small-RPC cell can invert when the losing policies collapse and
	// deliver less traffic — see EXPERIMENTS.md deviation 4).
	fig20 := tables["fig20"]
	ecmpSmall := parse(t, findRow(t, fig20, "50", "ecmp")[4])
	ppSmall := parse(t, findRow(t, fig20, "50", "perpacket")[4])
	if ppSmall > ecmpSmall {
		t.Errorf("fig20: per-packet small p99 %.0fus worse than ECMP %.0fus at 50%%", ppSmall, ecmpSmall)
	}
	ecmpLarge := parse(t, findRow(t, fig20, "90", "ecmp")[2])
	ppLarge := parse(t, findRow(t, fig20, "90", "perpacket")[2])
	if ppLarge > ecmpLarge {
		t.Errorf("fig20: per-packet large p99 %.1fms worse than ECMP %.1fms at 90%%", ppLarge, ecmpLarge)
	}

	// chaos: every Juggler scenario is violation-free; the vanilla+reorder
	// control row must trip the order invariant (the checker has teeth).
	chaosTab := tables["chaos"]
	for _, row := range chaosTab.Rows {
		if row[1] == "juggler" && row[6] != "ok" {
			t.Errorf("chaos: juggler scenario %q violated invariants: %v", row[0], row)
		}
	}
	if row := findRow(t, chaosTab, "reorder", "vanilla"); row[6] != "VIOLATED" {
		t.Errorf("chaos: vanilla under reordering should trip the order invariant: %v", row)
	}

	// abl-conntrack: juggler keeps the tracker clean under reordering.
	ct := tables["abl-conntrack"]
	if frac := parse(t, findRow(t, ct, "juggler", "500")[2]); frac > 0.01 {
		t.Errorf("conntrack invalid fraction %.3f behind juggler", frac)
	}
	if frac := parse(t, findRow(t, ct, "vanilla", "500")[2]); frac < 0.05 {
		t.Errorf("conntrack invalid fraction %.3f behind vanilla, expected substantial", frac)
	}
}
