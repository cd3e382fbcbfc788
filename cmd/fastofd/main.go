// Command fastofd discovers Ontology Functional Dependencies from a CSV
// relation and a JSON ontology.
//
// Usage:
//
//	fastofd -data trials.csv -ontology drugs.json [-support 0.9]
//	        [-maxlevel 6] [-stats] [-no-opt] [-timeout 30s]
//
// The CSV's header row names the attributes; the ontology follows the JSON
// schema written by the ofdclean tool or fastofd.WriteOntologyFile. With
// -support < 1, approximate OFDs holding on at least that fraction of
// tuples are reported. Discovered dependencies print one per line as
// "[X1, X2] -> A".
//
// With -baseline, one of the paper's plain-FD comparators (tane, fun,
// fdmine, dfd, depminer, fastfds, fdep) runs instead of FastOFD; -workers
// parallelizes its evidence-set construction and lattice products with
// byte-identical output.
//
// SIGINT/SIGTERM or an elapsed -timeout stop the run cooperatively: the
// dependencies discovered so far are printed, a per-stage execution table
// goes to stderr, and the process exits with status 3.
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"github.com/fastofd/fastofd"
	"github.com/fastofd/fastofd/internal/cli"
	"github.com/fastofd/fastofd/internal/fd"
)

func main() {
	var (
		dataPath = flag.String("data", "", "CSV file with a header row (required)")
		ontPath  = flag.String("ontology", "", "ontology JSON file (optional; empty = plain FDs)")
		support  = flag.Float64("support", 1.0, "minimum support κ for approximate OFDs (0 < κ ≤ 1)")
		maxLevel = flag.Int("maxlevel", 0, "cap the lattice depth (0 = unbounded)")
		stats    = flag.Bool("stats", false, "print per-level and per-stage statistics")
		noOpt    = flag.Bool("no-opt", false, "disable the pruning optimizations (Opt-2/3/4)")
		mode     = flag.String("mode", "synonym", "dependency mode: synonym or inheritance")
		theta    = flag.Int("theta", 5, "is-a path bound for inheritance mode")
		workers  = flag.Int("workers", 1, "parallel discovery workers (0 = all CPUs)")
		top      = flag.Int("top", 0, "print only the k most interesting OFDs, with scores")
		baseline = flag.String("baseline", "", "run a plain-FD baseline instead of FastOFD: tane, fun, fdmine, dfd, depminer, fastfds, or fdep")
		timeout  = flag.Duration("timeout", 0, "abort after this duration, printing the partial result (0 = no timeout)")
	)
	flag.Parse()
	if *dataPath == "" {
		flag.Usage()
		os.Exit(2)
	}
	ctx, stop := cli.Context(*timeout)
	defer stop()
	stageStats := fastofd.NewStats()

	rel, err := fastofd.ReadCSVFile(*dataPath)
	if err != nil {
		fail(err)
	}
	if *baseline != "" {
		start := time.Now()
		res, err := fd.DiscoverContext(ctx, *baseline, rel, fd.Options{Workers: *workers, Stats: stageStats})
		if err != nil && !cli.Interrupted(err) {
			fail(err)
		}
		for _, d := range res.FDs {
			fmt.Println(d.Format(rel.Schema()))
		}
		fmt.Fprintf(os.Stderr, "%s: %d FDs over %d tuples x %d attributes in %s\n",
			res.Algorithm, len(res.FDs), rel.NumRows(), rel.NumCols(), time.Since(start).Round(1e6))
		if err != nil {
			cli.ExitInterruptedWith("fastofd", err, stageStats)
		}
		if *stats {
			fmt.Fprint(os.Stderr, stageStats.Table())
		}
		return
	}
	ont := fastofd.NewOntology()
	if *ontPath != "" {
		ont, err = fastofd.ReadOntologyFile(*ontPath)
		if err != nil {
			fail(err)
		}
	}

	opts := fastofd.DefaultDiscoveryOptions()
	if *noOpt {
		opts = fastofd.DiscoveryOptions{}
	}
	opts.MaxLevel = *maxLevel
	opts.MinSupport = *support
	opts.Workers = *workers
	opts.Stats = stageStats
	switch *mode {
	case "synonym":
		opts.Mode = fastofd.ModeSynonym
	case "inheritance":
		opts.Mode = fastofd.ModeInheritance
		opts.Theta = *theta
	default:
		fail(fmt.Errorf("unknown mode %q (want synonym or inheritance)", *mode))
	}

	res, derr := fastofd.DiscoverContext(ctx, rel, ont, opts)
	if derr != nil && !cli.Interrupted(derr) {
		fail(derr)
	}
	if *top > 0 {
		for _, r := range fastofd.Top(fastofd.Rank(rel, ont, res.OFDs), *top) {
			fmt.Printf("%-40s score=%.3f synonym-share=%.0f%% classes=%d\n",
				r.OFD.Format(rel.Schema()), r.Score, 100*r.SynonymShare, r.ClassCount)
		}
	} else {
		for _, d := range res.OFDs {
			fmt.Println(d.Format(rel.Schema()))
		}
	}
	fmt.Fprintf(os.Stderr, "%d OFDs over %d tuples x %d attributes in %s (%d candidates checked)\n",
		len(res.OFDs), rel.NumRows(), rel.NumCols(), res.Elapsed.Round(1e6), res.CandidatesChecked)
	if *stats {
		fmt.Fprintf(os.Stderr, "%-6s %8s %10s %12s %10s %10s %12s\n", "level", "nodes", "products", "prod tuples", "cands", "OFDs", "time")
		for _, ls := range res.Levels {
			fmt.Fprintf(os.Stderr, "%-6d %8d %10d %12d %10d %10d %12s\n",
				ls.Level, ls.Nodes, ls.Products, ls.ProductTuples, ls.Candidates, ls.Discovered, ls.Elapsed.Round(1e6))
		}
	}
	if derr != nil {
		cli.ExitInterruptedWith("fastofd", derr, stageStats)
	}
	if *stats {
		fmt.Fprint(os.Stderr, stageStats.Table())
	}
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "fastofd:", err)
	os.Exit(1)
}
