package cliflags

import (
	"flag"
	"fmt"
	"strings"
	"testing"
	"time"
)

// TestFlagSet pins the shared flag set: name, type and default. A CLI
// gets the shared knobs only through Register, so this list is the whole
// parity contract between the CLIs.
func TestFlagSet(t *testing.T) {
	const want = "adapt=bool:false inseq=time.Duration:0s j=int:1 ofo=time.Duration:0s seed=int64:1 stamp-sample=int:1"
	fs := flag.NewFlagSet("t", flag.ContinueOnError)
	Register(fs)
	var got []string
	fs.VisitAll(func(f *flag.Flag) { // in name order
		typ := fmt.Sprintf("%T", f.Value)
		if g, ok := f.Value.(flag.Getter); ok {
			typ = fmt.Sprintf("%T", g.Get())
		}
		got = append(got, f.Name+"="+typ+":"+f.DefValue)
	})
	if g := strings.Join(got, " "); g != want {
		t.Errorf("flags:\n got %s\nwant %s", g, want)
	}
}

func TestParseFillsFlagsAndOptions(t *testing.T) {
	fs := flag.NewFlagSet("t", flag.ContinueOnError)
	f := Register(fs)
	err := fs.Parse([]string{"-seed", "7", "-j", "8",
		"-adapt", "-inseq", "20us", "-ofo", "80us", "-stamp-sample", "16"})
	if err != nil {
		t.Fatal(err)
	}
	want := Flags{Seed: 7, J: 8, Adapt: true,
		Inseq: 20 * time.Microsecond, Ofo: 80 * time.Microsecond, StampSample: 16}
	if *f != want {
		t.Fatalf("parsed %+v, want %+v", *f, want)
	}
	o := f.Options()
	if o.Seed != 7 || o.Workers != 8 || !o.Adapt ||
		o.Inseq != want.Inseq || o.Ofo != want.Ofo || o.StampSample != 16 {
		t.Fatalf("Options() = %+v", o)
	}
	r := f.Replay()
	if r.Seed != 7 || r.Core.InseqTimeout != want.Inseq ||
		r.Core.OfoTimeout != want.Ofo || !r.Adapt || r.StampSample != 16 {
		t.Fatalf("Replay() = %+v", r)
	}
}
