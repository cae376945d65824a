// Command trace drives the trace-driven functional simulator: replay
// a synthetic access pattern through the simulated cache hierarchy and
// report hit ratios, traffic and average latency. It is the
// measurement companion to the analytic figures tool.
//
//	trace -pattern seq    -footprint 8MB  -memcache 0
//	trace -pattern random -footprint 32MB -accesses 500000
//	trace -pattern chase  -footprint 16MB -accesses 1000000
//	trace -pattern seq    -footprint 6MB  -memcache 4MB -passes 3
//
// With -o the generated stream is exported in the tracestore binary
// format instead of being replayed, turning every synthetic pattern
// into a seedable fixture for the trace service:
//
//	trace -pattern chase -footprint 16MB -accesses 1000000 -o chase.trc
//	simctl trace upload chase.trc
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"repro/internal/cache"
	"repro/internal/tracesim"
	"repro/internal/tracestore"
	"repro/internal/units"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "trace:", err)
		os.Exit(1)
	}
}

// run is the testable body of the command.
func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("trace", flag.ContinueOnError)
	pattern := fs.String("pattern", "seq", "access pattern: seq|random|chase")
	footprint := fs.String("footprint", "8MB", "region size")
	accesses := fs.Int64("accesses", 200000, "random accesses (random pattern)")
	memcache := fs.String("memcache", "0", "memory-side cache size (0 = flat mode)")
	passes := fs.Int("passes", 2, "replay passes (last one measured)")
	prefetch := fs.Bool("prefetch", true, "enable the stream prefetcher")
	writes := fs.Bool("writes", false, "issue writes instead of reads")
	seed := fs.Int64("seed", 1, "random seed")
	output := fs.String("o", "", "export the stream to this file (tracestore binary format) instead of replaying")
	if err := fs.Parse(args); err != nil {
		return err
	}

	fp, err := units.ParseBytes(*footprint)
	if err != nil {
		return err
	}
	mc, err := units.ParseBytes(*memcache)
	if err != nil {
		return err
	}
	kind := cache.Read
	if *writes {
		kind = cache.Write
	}
	var gen tracesim.BlockSource
	switch *pattern {
	case "seq":
		gen, err = tracesim.NewSequential(0, uint64(fp), 64, kind)
	case "random":
		gen, err = tracesim.NewUniformRandom(0, uint64(fp), *accesses, kind, *seed)
	case "chase":
		gen, err = tracesim.NewPointerChase(0, uint64(fp), *accesses, kind, *seed)
	default:
		err = fmt.Errorf("unknown pattern %q (seq|random|chase)", *pattern)
	}
	if err != nil {
		return err
	}

	if *output != "" {
		sum, id, err := tracestore.Export(*output, gen)
		if err != nil {
			return err
		}
		fmt.Fprintf(stdout, "exported %s trace to %s\n", *pattern, *output)
		fmt.Fprintf(stdout, "id:        %s\n", id)
		fmt.Fprintf(stdout, "accesses:  %d (%d reads, %d writes)\n", sum.Accesses, sum.Reads, sum.Writes)
		fmt.Fprintf(stdout, "footprint: %v (%d lines)\n", sum.Footprint(), sum.Lines)
		return nil
	}

	cfg := tracesim.DefaultConfig(mc)
	cfg.Prefetcher = *prefetch
	sim, err := tracesim.New(cfg)
	if err != nil {
		return err
	}
	res, err := sim.Run(gen, *passes)
	if err != nil {
		return err
	}
	fmt.Fprintf(stdout, "pattern=%s footprint=%v memcache=%v prefetch=%v passes=%d\n",
		*pattern, fp, mc, *prefetch, *passes)
	fmt.Fprintf(stdout, "accesses:      %d\n", res.Accesses)
	fmt.Fprintf(stdout, "L1  hit ratio: %.3f (%d/%d)\n", res.L1.HitRatio(), res.L1.Hits, res.L1.Hits+res.L1.Misses)
	fmt.Fprintf(stdout, "L2  hit ratio: %.3f (%d/%d)\n", res.L2.HitRatio(), res.L2.Hits, res.L2.Hits+res.L2.Misses)
	if mc > 0 {
		fmt.Fprintf(stdout, "MSC hit ratio: %.3f (%d/%d)\n", res.MemCache.HitRatio(),
			res.MemCache.Hits, res.MemCache.Hits+res.MemCache.Misses)
	}
	fmt.Fprintf(stdout, "memory reads:  %d lines\n", res.MemReads)
	fmt.Fprintf(stdout, "memory writes: %d lines\n", res.MemWrites)
	fmt.Fprintf(stdout, "prefetches:    %d\n", res.Prefetches)
	fmt.Fprintf(stdout, "avg latency:   %.1f ns\n", res.AvgLatencyNS())
	return nil
}
