package cliflags

import (
	"flag"
	"fmt"
	"strings"
	"testing"
	"time"
)

// TestGroups pins each group's flag set: name, type and default. A CLI
// gets the shared knobs only through Register, so this table is the whole
// parity contract between the CLIs.
func TestGroups(t *testing.T) {
	base := "adapt=bool:false j=int:1 seed=int64:1 shards=int:1 stamp-sample=int:1"
	for _, tc := range []struct {
		group Group
		want  string
	}{
		{Base, base},
		{Tuned, "adapt=bool:false inseq=time.Duration:0s j=int:1 ofo=time.Duration:0s seed=int64:1 shards=int:1 stamp-sample=int:1"},
	} {
		fs := flag.NewFlagSet("t", flag.ContinueOnError)
		Register(fs, tc.group)
		var got []string
		fs.VisitAll(func(f *flag.Flag) { // in name order
			typ := fmt.Sprintf("%T", f.Value)
			if g, ok := f.Value.(flag.Getter); ok {
				typ = fmt.Sprintf("%T", g.Get())
			}
			got = append(got, f.Name+"="+typ+":"+f.DefValue)
		})
		if g := strings.Join(got, " "); g != tc.want {
			t.Errorf("group %d flags:\n got %s\nwant %s", tc.group, g, tc.want)
		}
	}
}

func TestParseFillsFlagsAndOptions(t *testing.T) {
	fs := flag.NewFlagSet("t", flag.ContinueOnError)
	f := Register(fs, Tuned)
	err := fs.Parse([]string{"-seed", "7", "-j", "8", "-shards", "4",
		"-adapt", "-inseq", "20us", "-ofo", "80us", "-stamp-sample", "16"})
	if err != nil {
		t.Fatal(err)
	}
	want := Flags{Seed: 7, J: 8, Shards: 4, Adapt: true,
		Inseq: 20 * time.Microsecond, Ofo: 80 * time.Microsecond, StampSample: 16}
	if *f != want {
		t.Fatalf("parsed %+v, want %+v", *f, want)
	}
	o := f.Options()
	if o.Seed != 7 || o.Workers != 2 || o.Shards != 4 || !o.Adapt ||
		o.Inseq != want.Inseq || o.Ofo != want.Ofo || o.StampSample != 16 {
		t.Fatalf("Options() = %+v", o)
	}
	r := f.Replay()
	if r.Seed != 7 || r.Core.InseqTimeout != want.Inseq ||
		r.Core.OfoTimeout != want.Ofo || r.Adapt == nil || r.StampSample != 16 {
		t.Fatalf("Replay() = %+v", r)
	}
}
