package juggler

import (
	"os"
	"path/filepath"
	"regexp"
	"testing"
)

// TestCLIFlagParity keeps the shared determinism/config knobs aligned
// across the CLIs: when a knob exists, it must exist under the same
// name and flag type everywhere the table says it belongs, so a user
// can move a repro command line between tools without translating
// flags. The check is a source scan of cmd/*/main.go (the same idiom
// as TestNoStrayRandomness): adding a CLI or a shared knob without
// updating this table is a test failure, which is the point.
func TestCLIFlagParity(t *testing.T) {
	// Every flag definition in every CLI: name -> cli -> flag type.
	defRe := regexp.MustCompile(`flag\.(String|Bool|Int64|Int|Duration|Float64)\("([a-z-]+)"`)
	defs := map[string]map[string]string{}
	clis, err := filepath.Glob("cmd/juggler-*/main.go")
	if err != nil || len(clis) == 0 {
		t.Fatalf("no CLIs found under cmd/: %v", err)
	}
	for _, path := range clis {
		src, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		cli := filepath.Base(filepath.Dir(path))
		for _, m := range defRe.FindAllStringSubmatch(string(src), -1) {
			typ, name := m[1], m[2]
			if defs[name] == nil {
				defs[name] = map[string]string{}
			}
			if prev, dup := defs[name][cli]; dup && prev != typ {
				t.Errorf("%s defines -%s twice with types %s and %s", cli, name, prev, typ)
			}
			defs[name][cli] = typ
		}
	}

	// The parity table: each shared knob, its flag type, and the CLIs
	// required to carry it. juggler-replay is seedless/sweepless (one
	// trace, one sim), so it alone lacks -j, -shards and -seed.
	all := []string{"juggler-bench", "juggler-chaos", "juggler-doctor",
		"juggler-replay", "juggler-sim", "juggler-trace"}
	seeded := []string{"juggler-bench", "juggler-chaos", "juggler-doctor",
		"juggler-sim", "juggler-trace"}
	tuned := []string{"juggler-bench", "juggler-chaos", "juggler-replay",
		"juggler-sim"}
	adaptive := []string{"juggler-bench", "juggler-chaos", "juggler-doctor",
		"juggler-replay", "juggler-sim"}
	for _, want := range []struct {
		name string
		typ  string
		clis []string
	}{
		{"backend", "String", all},
		{"stamp-sample", "Int", all},
		{"adapt", "Bool", adaptive},
		{"inseq", "Duration", tuned},
		{"ofo", "Duration", tuned},
		{"j", "Int", seeded},
		{"shards", "Int", seeded},
		{"seed", "Int64", seeded},
	} {
		for _, cli := range want.clis {
			got, ok := defs[want.name][cli]
			if !ok {
				t.Errorf("%s is missing the shared -%s flag", cli, want.name)
				continue
			}
			if got != want.typ {
				t.Errorf("%s defines -%s as flag.%s, parity table says flag.%s",
					cli, want.name, got, want.typ)
			}
		}
		// Parity cuts both ways: a CLI carrying the knob outside the
		// table means the table (and the help text conventions) rotted.
		for cli := range defs[want.name] {
			found := false
			for _, want := range want.clis {
				if cli == want {
					found = true
				}
			}
			if !found {
				t.Errorf("%s defines -%s but the parity table does not list it; update the table",
					cli, want.name)
			}
		}
	}
}
