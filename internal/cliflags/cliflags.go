// Package cliflags registers the knobs every juggler CLI shares, once, so
// a repro command line moves between tools without translating flags:
// each shared flag has one name, one type, one default and one help
// string by construction.
//
// The shared flags are -seed, -j, -adapt, -stamp-sample, -inseq and -ofo.
// -seed, -j and -stamp-sample reach every run. -adapt, -inseq and -ofo
// reach only the runs that build a tunable Juggler receiver: the doctor's
// scenarios, -fleet and -replay, juggler-sim, and the chaos, fleet and
// shardedrx experiments (-inseq/-ofo also adaptive). Every other
// experiment ignores them.
package cliflags

import (
	"flag"
	"time"

	"juggler/internal/core"
	"juggler/internal/experiments"
	"juggler/internal/replay"
	"juggler/internal/sweep"
)

// Flags holds the parsed shared flags.
type Flags struct {
	Seed        int64
	J           int
	Adapt       bool
	Inseq, Ofo  time.Duration
	StampSample int
}

// Register defines the shared flags on fs. The returned Flags are filled
// in when fs is parsed.
func Register(fs *flag.FlagSet) *Flags {
	f := &Flags{}
	fs.Int64Var(&f.Seed, "seed", 1, "simulation seed (identical seeds reproduce byte-identical output)")
	fs.IntVar(&f.J, "j", 1, "goroutine budget (0 = one per core): sweep points, scenarios, or shardedrx's RX lanes; output is identical at any width")
	fs.BoolVar(&f.Adapt, "adapt", false, "attach the self-tuning controller (timeouts become starting points); honoured by the doctor's scenarios, -fleet, -replay, juggler-sim and the chaos, fleet and shardedrx experiments")
	fs.IntVar(&f.StampSample, "stamp-sample", 1, "hop-stamp 1-in-N sampling rate (1 = every packet, exact)")
	fs.DurationVar(&f.Inseq, "inseq", 0, "starting inseq_timeout (0 = the run's own default); honoured where -adapt is, and by the adaptive experiment")
	fs.DurationVar(&f.Ofo, "ofo", 0, "starting ofo_timeout (0 = the run's own default); honoured where -adapt is, and by the adaptive experiment")
	return f
}

// Replay builds the replay-driver configuration the shared flags
// describe: core's defaults, with -inseq/-ofo when set.
func (f *Flags) Replay() replay.Config {
	c := replay.Config{Seed: f.Seed, Core: core.DefaultConfig(), Adapt: f.Adapt, StampSample: f.StampSample}
	if f.Inseq > 0 {
		c.Core.InseqTimeout = f.Inseq
	}
	if f.Ofo > 0 {
		c.Core.OfoTimeout = f.Ofo
	}
	return c
}

// Options builds the experiment options the shared flags describe.
func (f *Flags) Options() experiments.Options {
	return experiments.Options{Seed: f.Seed, Workers: sweep.Workers(f.J),
		Adapt: f.Adapt, Inseq: f.Inseq, Ofo: f.Ofo, StampSample: f.StampSample}
}
