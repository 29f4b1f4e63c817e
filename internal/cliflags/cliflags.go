// Package cliflags registers the knobs every juggler CLI shares, once, so
// a repro command line moves between tools without translating flags:
// each shared flag has one name, one type, one default and one help
// string by construction.
//
// Every CLI gets -seed, -j, -shards, -adapt and -stamp-sample (Base).
// CLIs that set Juggler's starting timeouts also get -inseq and -ofo
// (Tuned).
package cliflags

import (
	"flag"
	"time"

	"juggler/internal/adapt"
	"juggler/internal/core"
	"juggler/internal/experiments"
	"juggler/internal/replay"
	"juggler/internal/sweep"
)

// Group selects which shared flags a CLI registers.
type Group int

const (
	// Base is -seed, -j, -shards, -adapt and -stamp-sample.
	Base Group = iota
	// Tuned is Base plus -inseq and -ofo.
	Tuned
)

// Flags holds the parsed shared flags.
type Flags struct {
	Seed        int64
	J           int
	Shards      int
	Adapt       bool
	Inseq, Ofo  time.Duration
	StampSample int
}

// Register defines group g's flags on fs. The returned Flags are filled
// in when fs is parsed.
func Register(fs *flag.FlagSet, g Group) *Flags {
	f := &Flags{}
	fs.Int64Var(&f.Seed, "seed", 1, "simulation seed (identical seeds reproduce byte-identical output)")
	fs.IntVar(&f.J, "j", 1, "worker goroutines for independent runs (0 = one per core); output is identical at any width")
	fs.IntVar(&f.Shards, "shards", 1, "intra-sim lanes for the sharded receive datapath; output is identical at any count (closed-loop runs stay serial), and -j is re-budgeted so total goroutines stay at the -j request")
	fs.BoolVar(&f.Adapt, "adapt", false, "attach the self-tuning controller to every Juggler receiver (timeouts become starting points)")
	fs.IntVar(&f.StampSample, "stamp-sample", 1, "hop-stamp 1-in-N sampling rate (1 = every packet, exact)")
	if g == Tuned {
		fs.DurationVar(&f.Inseq, "inseq", 0, "starting inseq_timeout (0 = the run's own default)")
		fs.DurationVar(&f.Ofo, "ofo", 0, "starting ofo_timeout (0 = the run's own default)")
	}
	return f
}

// Workers is the sweep width left once every run's -shards lanes are
// budgeted out of -j.
func (f *Flags) Workers() int { return sweep.EffectiveWorkers(f.J, f.Shards) }

// Replay builds the replay-driver configuration the shared flags
// describe: core's defaults, with -inseq/-ofo when set.
func (f *Flags) Replay() replay.Config {
	c := replay.Config{Seed: f.Seed, Core: core.DefaultConfig(), StampSample: f.StampSample}
	if f.Inseq > 0 {
		c.Core.InseqTimeout = f.Inseq
	}
	if f.Ofo > 0 {
		c.Core.OfoTimeout = f.Ofo
	}
	if f.Adapt {
		a := adapt.DefaultConfig()
		c.Adapt = &a
	}
	return c
}

// Options builds the experiment options the shared flags describe.
func (f *Flags) Options() experiments.Options {
	return experiments.Options{Seed: f.Seed, Workers: f.Workers(), Shards: f.Shards,
		Adapt: f.Adapt, Inseq: f.Inseq, Ofo: f.Ofo, StampSample: f.StampSample}
}
