package main

import (
	"bytes"
	"encoding/csv"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"juggler/internal/experiments"
)

// TestUnknownIDRunsNothing: an unknown ID is a usage error (exit 2) found
// before any experiment runs, whether it comes alone or after a valid ID.
func TestUnknownIDRunsNothing(t *testing.T) {
	for _, args := range [][]string{{"bogus"}, {"-quick", "latency", "bogus"}} {
		var stdout, stderr bytes.Buffer
		if err := run(args, &stdout, &stderr); err != errUsage {
			t.Errorf("run(%q) = %v, want errUsage", args, err)
		}
		if stdout.Len() != 0 {
			t.Errorf("run(%q) printed %q before failing", args, stdout.String())
		}
		if !strings.Contains(stderr.String(), `unknown experiment "bogus"`) {
			t.Errorf("run(%q) stderr = %q, want the unknown ID named", args, stderr.String())
		}
	}
}

// TestCSVMatchesTable: -csv writes the table's columns, then its rows.
func TestCSVMatchesTable(t *testing.T) {
	dir := t.TempDir()
	var stdout, stderr bytes.Buffer
	if err := run([]string{"-quick", "-csv", dir, "fig16"}, &stdout, &stderr); err != nil {
		t.Fatalf("run: %v\n%s", err, stderr.String())
	}
	f, err := os.Open(filepath.Join(dir, "fig16.csv"))
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	got, err := csv.NewReader(f).ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	tb := experiments.Run("fig16", experiments.Options{Seed: 1, Quick: true})
	want := append([][]string{tb.Columns}, tb.Rows...)
	if !slices.EqualFunc(got, want, slices.Equal) {
		t.Errorf("fig16.csv = %q, want %q", got, want)
	}
	var printed bytes.Buffer
	tb.Fprint(&printed)
	if !bytes.Contains(stdout.Bytes(), printed.Bytes()) {
		t.Errorf("stdout lacks the table the CSV holds:\n%s", stdout.String())
	}
}

// TestListNamesEveryID: -list prints one line per registered experiment.
func TestListNamesEveryID(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if err := run([]string{"-list"}, &stdout, &stderr); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSuffix(stdout.String(), "\n"), "\n")
	if len(lines) != len(experiments.IDs()) {
		t.Fatalf("-list printed %d lines for %d IDs:\n%s", len(lines), len(experiments.IDs()), stdout.String())
	}
	for i, id := range experiments.IDs() {
		if f := strings.Fields(lines[i]); len(f) == 0 || f[0] != id {
			t.Errorf("-list line %d = %q, want ID %s", i, lines[i], id)
		}
	}
}
