package main

import (
	"fmt"
	"time"

	"github.com/fastofd/fastofd/internal/core"
	"github.com/fastofd/fastofd/internal/discovery"
	"github.com/fastofd/fastofd/internal/fd"
	"github.com/fastofd/fastofd/internal/gen"
	"github.com/fastofd/fastofd/internal/holoclean"
	"github.com/fastofd/fastofd/internal/metrics"
	"github.com/fastofd/fastofd/internal/relation"
	"github.com/fastofd/fastofd/internal/repair"
)

// pairBasedLimit caps the tuple count for the quadratic, pair-based FD
// algorithms (DepMiner, FastFDs, FDep), mirroring the paper's observation
// that they time out / exhaust memory beyond modest sizes. The cluster-based
// evidence engine removed the per-pair dedup map (memory is no longer the
// binding constraint), so the cap sits one doubling higher than before —
// the remaining cost is the inherently quadratic pair visiting.
const pairBasedLimit = 8000

func isPairBased(alg string) bool {
	return alg == fd.DepMiner || alg == fd.FastFDs || alg == fd.FDep
}

// exp1VaryN reproduces Fig 7a / Table 6: runtime vs number of tuples for
// FastOFD and the seven FD discovery baselines on the clinical workload.
func exp1VaryN(cfg runConfig) {
	sizes := []int{cfg.discRows / 4, cfg.discRows / 2, cfg.discRows, cfg.discRows * 2, cfg.discRows * 4}
	fmt.Printf("%-10s", "N")
	for _, n := range sizes {
		fmt.Printf("%12d", n)
	}
	fmt.Println()
	// FastOFD row first (with ontology), then the FD baselines.
	fmt.Printf("%-10s", "FastOFD")
	for _, n := range sizes {
		ds := gen.Clinical(n, 1)
		start := time.Now()
		res := discovery.Discover(ds.Rel, ds.FullOnt, discovery.DefaultOptions())
		fmt.Printf("%12s", fmt.Sprintf("%.2fs/%d", time.Since(start).Seconds(), len(res.OFDs)))
	}
	fmt.Println()
	// Inheritance discovery (the conference version reports ~2.4x overhead
	// for inheritance vs ~1.8x for synonym OFDs).
	fmt.Printf("%-10s", "FastOFD-inh")
	for _, n := range sizes {
		ds := gen.Clinical(n, 1)
		opts := discovery.DefaultOptions()
		opts.Mode = discovery.ModeInheritance
		opts.Theta = 2
		start := time.Now()
		res := discovery.Discover(ds.Rel, ds.FullOnt, opts)
		fmt.Printf("%12s", fmt.Sprintf("%.2fs/%d", time.Since(start).Seconds(), len(res.OFDs)))
	}
	fmt.Println()
	for _, alg := range fd.Algorithms() {
		fmt.Printf("%-10s", alg)
		for _, n := range sizes {
			if isPairBased(alg) && n > pairBasedLimit {
				fmt.Printf("%12s", "(skipped)")
				continue
			}
			ds := gen.Clinical(n, 1)
			start := time.Now()
			res, err := fd.Discover(alg, ds.Rel)
			if err != nil {
				fmt.Printf("%12s", "err")
				continue
			}
			fmt.Printf("%12s", fmt.Sprintf("%.2fs/%d", time.Since(start).Seconds(), len(res.FDs)))
		}
		fmt.Println()
	}
	fmt.Println("cells: runtime seconds / dependencies found; pair-based algorithms")
	fmt.Println("(depminer, fastfds, fdep) skipped beyond", pairBasedLimit, "tuples as in the paper.")
}

// exp2VaryAttrs reproduces Fig 7b: runtime vs number of attributes.
func exp2VaryAttrs(cfg runConfig) {
	ns := []int{4, 6, 8, 10, 12, 15}
	base := gen.Clinical(cfg.discRows/4, 1)
	fmt.Printf("%-10s", "n")
	for _, n := range ns {
		fmt.Printf("%12d", n)
	}
	fmt.Println()
	project := func(n int) *relation.Relation {
		cols := make([]int, n)
		for i := range cols {
			cols[i] = i
		}
		sub, err := base.Rel.ProjectColumns(cols)
		if err != nil {
			panic(err)
		}
		return sub
	}
	fmt.Printf("%-10s", "FastOFD")
	for _, n := range ns {
		sub := project(n)
		start := time.Now()
		res := discovery.Discover(sub, base.FullOnt, discovery.DefaultOptions())
		fmt.Printf("%12s", fmt.Sprintf("%.2fs/%d", time.Since(start).Seconds(), len(res.OFDs)))
	}
	fmt.Println()
	for _, alg := range []string{fd.TANE, fd.FUN, fd.DFD, fd.FDep} {
		fmt.Printf("%-10s", alg)
		for _, n := range ns {
			sub := project(n)
			start := time.Now()
			res, _ := fd.Discover(alg, sub)
			fmt.Printf("%12s", fmt.Sprintf("%.2fs/%d", time.Since(start).Seconds(), len(res.FDs)))
		}
		fmt.Println()
	}
}

// exp3Optimizations reproduces Fig 7c: FastOFD runtime with pruning rules
// individually disabled.
func exp3Optimizations(cfg runConfig) {
	ds := gen.Clinical(cfg.discRows, 1)
	configs := []struct {
		name string
		opts discovery.Options
	}{
		{"none", discovery.Options{}},
		{"opt2", discovery.Options{PruneAugmentation: true}},
		{"opt2+3", discovery.Options{PruneAugmentation: true, PruneKeys: true}},
		{"opt2+4", discovery.Options{PruneAugmentation: true, FDShortcut: true}},
		{"all", discovery.DefaultOptions()},
	}
	var baseline float64
	for _, c := range configs {
		// Best of three runs, to keep GC noise out of the small deltas
		// between Opt-3/Opt-4 configurations.
		var sec float64
		var res *discovery.Result
		for rep := 0; rep < 3; rep++ {
			start := time.Now()
			res = discovery.Discover(ds.Rel, ds.FullOnt, c.opts)
			if s := time.Since(start).Seconds(); rep == 0 || s < sec {
				sec = s
			}
		}
		if c.name == "none" {
			baseline = sec
		}
		improvement := 0.0
		if baseline > 0 {
			improvement = 100 * (baseline - sec) / baseline
		}
		fmt.Printf("%-8s %8.2fs   %5d candidates checked   %d OFDs   %+.0f%% vs none\n",
			c.name, sec, res.CandidatesChecked, len(res.OFDs), improvement)
	}
}

// exp4LatticeLevels reproduces the lattice-level efficiency analysis:
// where the OFDs are found and where the time goes.
func exp4LatticeLevels(cfg runConfig) {
	ds := gen.Clinical(cfg.discRows, 1)
	res := discovery.Discover(ds.Rel, ds.FullOnt, discovery.DefaultOptions())
	var totalTime time.Duration
	total := 0
	for _, ls := range res.Levels {
		totalTime += ls.Elapsed
		total += ls.Discovered
	}
	fmt.Printf("%-6s %10s %10s %12s %10s %12s %10s %10s\n", "level", "nodes", "products", "prod tuples", "OFDs", "time", "cum OFDs%", "cum time%")
	cumOFD, cumTime := 0, time.Duration(0)
	for _, ls := range res.Levels {
		cumOFD += ls.Discovered
		cumTime += ls.Elapsed
		fmt.Printf("%-6d %10d %10d %12d %10d %12s %9.0f%% %9.0f%%\n",
			ls.Level, ls.Nodes, ls.Products, ls.ProductTuples, ls.Discovered, ls.Elapsed.Round(time.Millisecond),
			100*float64(cumOFD)/float64(max(total, 1)),
			100*float64(cumTime)/float64(max64(totalTime, 1)))
	}
	fmt.Printf("total: %d OFDs in %s\n", total, totalTime.Round(time.Millisecond))
}

// exp5FalsePositives reproduces the false-positive analysis: the fraction
// of tuples whose consequent differs syntactically but is synonymous —
// tuples an FD-based cleaner would flag as errors and an OFD keeps clean.
func exp5FalsePositives(cfg runConfig) {
	ds := gen.Clinical(cfg.discRows, 1)
	res := discovery.Discover(ds.Rel, ds.FullOnt, discovery.DefaultOptions())
	v := core.NewVerifier(ds.Rel, ds.FullOnt, nil)
	type agg struct {
		sum float64
		n   int
	}
	byLevel := make(map[int]*agg)
	for _, d := range res.OFDs {
		lvl := d.LHS.Len() // paper's level: antecedent size
		frac := v.NonEqualConsequentFraction(d)
		if frac == 0 {
			continue // plain FD; nothing saved
		}
		a := byLevel[lvl]
		if a == nil {
			a = &agg{}
			byLevel[lvl] = a
		}
		a.sum += frac
		a.n++
	}
	fmt.Printf("%-6s %12s %24s\n", "level", "syn OFDs", "avg non-equal tuples")
	for lvl := 1; lvl <= 16; lvl++ {
		if a, ok := byLevel[lvl]; ok {
			fmt.Printf("%-6d %12d %23.0f%%\n", lvl, a.n, 100*a.sum/float64(a.n))
		}
	}
}

// senseSweep runs Clean over seeds and averages sense accuracy.
func senseSweep(cfg runConfig, mk func(seed int64) gen.Config) (p, r, secs float64) {
	for s := 1; s <= cfg.seeds; s++ {
		ds := gen.Generate(mk(int64(s)))
		start := time.Now()
		res, err := repair.Clean(ds.Rel, ds.Ont, ds.Sigma, repair.DefaultOptions())
		if err != nil {
			panic(err)
		}
		secs += time.Since(start).Seconds()
		pr := metrics.SenseAccuracy(ds, res.Assignment)
		p += pr.Precision
		r += pr.Recall
	}
	k := float64(cfg.seeds)
	return p / k, r / k, secs / k
}

// exp6VarySenses reproduces Fig 8a,b: sense-selection accuracy and time as
// the number of senses |λ| grows.
func exp6VarySenses(cfg runConfig) {
	fmt.Printf("%-8s %10s %10s %10s\n", "|λ|", "precision", "recall", "time")
	for _, nl := range []int{2, 4, 6, 8, 10} {
		p, r, secs := senseSweep(cfg, func(seed int64) gen.Config {
			return gen.Config{Rows: cfg.rows, Seed: seed, Senses: nl, ErrRate: 0.03, NumOFDs: 6}
		})
		fmt.Printf("%-8d %9.1f%% %9.1f%% %9.2fs\n", nl, 100*p, 100*r, secs)
	}
}

// exp7VaryErr reproduces Fig 8c,d: sense selection vs error rate.
func exp7VaryErr(cfg runConfig) {
	fmt.Printf("%-8s %10s %10s %10s\n", "err%", "precision", "recall", "time")
	for _, er := range []float64{0.03, 0.06, 0.09, 0.12, 0.15} {
		p, r, secs := senseSweep(cfg, func(seed int64) gen.Config {
			return gen.Config{Rows: cfg.rows, Seed: seed, ErrRate: er, NumOFDs: 6}
		})
		fmt.Printf("%-8.0f %9.1f%% %9.1f%% %9.2fs\n", 100*er, 100*p, 100*r, secs)
	}
}

// exp8SenseVaryN reproduces the Table 6 companion: sense assignment
// accuracy and runtime as N grows.
func exp8SenseVaryN(cfg runConfig) {
	fmt.Printf("%-10s %10s %10s %12s\n", "N", "precision", "recall", "assign time")
	for _, n := range []int{cfg.rows / 4, cfg.rows / 2, cfg.rows, cfg.rows * 2, cfg.rows * 4} {
		var p, r float64
		var assign time.Duration
		for s := 1; s <= cfg.seeds; s++ {
			ds := gen.Generate(gen.Config{Rows: n, Seed: int64(s), ErrRate: 0.03, NumOFDs: 6})
			res, err := repair.Clean(ds.Rel, ds.Ont, ds.Sigma, repair.DefaultOptions())
			if err != nil {
				panic(err)
			}
			pr := metrics.SenseAccuracy(ds, res.Assignment)
			p += pr.Precision
			r += pr.Recall
			assign += res.AssignElapsed
		}
		k := float64(cfg.seeds)
		fmt.Printf("%-10d %9.1f%% %9.1f%% %12s\n", n, 100*p/k, 100*r/k, (assign / time.Duration(cfg.seeds)).Round(time.Millisecond))
	}
}

// repairSweep runs Clean over seeds and averages repair accuracy.
func repairSweep(cfg runConfig, opts repair.Options, mk func(seed int64) gen.Config) (data, ont metrics.PR, secs float64, kAvg float64) {
	for s := 1; s <= cfg.seeds; s++ {
		ds := gen.Generate(mk(int64(s)))
		start := time.Now()
		res, err := repair.Clean(ds.Rel, ds.Ont, ds.Sigma, opts)
		if err != nil {
			panic(err)
		}
		secs += time.Since(start).Seconds()
		d := metrics.DataRepairAccuracy(ds, res.Best.DataChanges, res.Instance)
		o := metrics.OntologyRepairAccuracy(ds, res.Best.OntChanges)
		data.Precision += d.Precision
		data.Recall += d.Recall
		ont.Precision += o.Precision
		ont.Recall += o.Recall
		kAvg += float64(res.Best.OntDist)
	}
	k := float64(cfg.seeds)
	data.Precision /= k
	data.Recall /= k
	ont.Precision /= k
	ont.Recall /= k
	return data, ont, secs / k, kAvg / k
}

// exp9VaryBeam reproduces Fig 10a,b: accuracy and runtime vs beam size b
// on the Kiva workload.
func exp9VaryBeam(cfg runConfig) {
	fmt.Printf("%-6s %10s %10s %10s\n", "b", "precision", "recall", "time")
	for _, b := range []int{1, 2, 3, 4, 5} {
		opts := repair.DefaultOptions()
		opts.Beam = b
		data, _, secs, _ := repairSweep(cfg, opts, func(seed int64) gen.Config {
			return gen.Config{Rows: cfg.rows, Seed: seed, Preset: "kiva", ErrRate: 0.12, IncRate: 0.08, NumOFDs: 8, Senses: 6}
		})
		fmt.Printf("%-6d %9.1f%% %9.1f%% %9.2fs\n", b, 100*data.Precision, 100*data.Recall, secs)
	}
}

// exp10VsHoloClean reproduces Fig 10c,d and the Exp-14 comparison:
// OFDClean vs the HoloClean-style baseline across error rates (Kiva).
func exp10VsHoloClean(cfg runConfig) {
	fmt.Printf("%-8s %12s %12s %12s | %12s %12s %12s\n",
		"err%", "OFD prec", "OFD rec", "OFD time", "Holo prec", "Holo rec", "Holo time")
	for _, er := range []float64{0.03, 0.06, 0.09, 0.12, 0.15} {
		var op, or, osec, hp, hr, hsec float64
		for s := 1; s <= cfg.seeds; s++ {
			ds := gen.Generate(gen.Config{Rows: cfg.rows, Seed: int64(s), Preset: "kiva", ErrRate: er, IncRate: 0.04, NumOFDs: 6})
			start := time.Now()
			res, err := repair.Clean(ds.Rel, ds.Ont, ds.Sigma, repair.DefaultOptions())
			if err != nil {
				panic(err)
			}
			osec += time.Since(start).Seconds()
			d := metrics.DataRepairAccuracy(ds, res.Best.DataChanges, res.Instance)
			op += d.Precision
			or += d.Recall

			dict := make([]string, 0, 1024)
			for _, id := range ds.Ont.AllClasses() {
				dict = append(dict, ds.Ont.Synonyms(id)...)
			}
			start = time.Now()
			hres := holoclean.Repair(ds.Rel, ds.Sigma, holoclean.DictionaryFromValues(dict), holoclean.DefaultOptions())
			hsec += time.Since(start).Seconds()
			hch := make([]repair.CellChange, len(hres.Changes))
			for i, c := range hres.Changes {
				hch[i] = repair.CellChange(c)
			}
			h := metrics.DataRepairAccuracy(ds, hch, hres.Instance)
			hp += h.Precision
			hr += h.Recall
		}
		k := float64(cfg.seeds)
		fmt.Printf("%-8.0f %11.1f%% %11.1f%% %11.2fs | %11.1f%% %11.1f%% %11.2fs\n",
			100*er, 100*op/k, 100*or/k, osec/k, 100*hp/k, 100*hr/k, hsec/k)
	}
}

// exp11VaryInc reproduces Fig 9a: accuracy vs ontology incompleteness.
func exp11VaryInc(cfg runConfig) {
	fmt.Printf("%-8s %12s %12s %12s %12s %8s\n", "inc%", "data prec", "data rec", "ont prec", "ont rec", "k")
	for _, inc := range []float64{0.02, 0.04, 0.06, 0.08, 0.10} {
		data, ont, _, k := repairSweep(cfg, repair.DefaultOptions(), func(seed int64) gen.Config {
			return gen.Config{Rows: cfg.rows, Seed: seed, ErrRate: 0.03, IncRate: inc, NumOFDs: 6}
		})
		fmt.Printf("%-8.0f %11.1f%% %11.1f%% %11.1f%% %11.1f%% %8.1f\n",
			100*inc, 100*data.Precision, 100*data.Recall, 100*ont.Precision, 100*ont.Recall, k)
	}
}

// exp12VarySigma reproduces Fig 9b: accuracy vs the number of OFDs.
func exp12VarySigma(cfg runConfig) {
	fmt.Printf("%-8s %12s %12s %10s\n", "|Σ|", "data prec", "data rec", "time")
	for _, ns := range []int{10, 20, 30, 40, 50} {
		data, _, secs, _ := repairSweep(cfg, repair.DefaultOptions(), func(seed int64) gen.Config {
			return gen.Config{Rows: cfg.rows, Seed: seed, ErrRate: 0.03, IncRate: 0.04, NumOFDs: ns}
		})
		fmt.Printf("%-8d %11.1f%% %11.1f%% %9.2fs\n", ns, 100*data.Precision, 100*data.Recall, secs)
	}
}

// exp13CleanVaryN reproduces Table 7: OFDClean runtime scaling in N.
func exp13CleanVaryN(cfg runConfig) {
	fmt.Printf("%-10s %10s %12s %12s %12s\n", "N", "time", "data prec", "data rec", "repairs")
	for _, n := range []int{cfg.rows / 4, cfg.rows / 2, cfg.rows, cfg.rows * 2, cfg.rows * 4} {
		var secs, p, r, d float64
		for s := 1; s <= cfg.seeds; s++ {
			ds := gen.Generate(gen.Config{Rows: n, Seed: int64(s), ErrRate: 0.06, IncRate: 0.04, NumOFDs: 6})
			start := time.Now()
			res, err := repair.Clean(ds.Rel, ds.Ont, ds.Sigma, repair.DefaultOptions())
			if err != nil {
				panic(err)
			}
			secs += time.Since(start).Seconds()
			pr := metrics.DataRepairAccuracy(ds, res.Best.DataChanges, res.Instance)
			p += pr.Precision
			r += pr.Recall
			d += float64(res.Best.DataDist)
		}
		k := float64(cfg.seeds)
		fmt.Printf("%-10d %9.2fs %11.1f%% %11.1f%% %12.0f\n", n, secs/k, 100*p/k, 100*r/k, d/k)
	}
}

// expQualitative reproduces the conference version's "finding interesting
// OFDs" experiment: rank discovered dependencies and show the compact,
// synonym-backed ones (e.g. census OCCUP →syn SAL) along with inheritance
// OFDs the synonym mode misses.
func expQualitative(cfg runConfig) {
	for _, preset := range []string{"clinical", "census"} {
		ds := gen.Generate(gen.Config{Rows: cfg.discRows / 2, Seed: 1, Preset: preset})
		res := discovery.Discover(ds.CleanRel, ds.FullOnt, discovery.DefaultOptions())
		fmt.Printf("%s: top interesting synonym OFDs (of %d discovered):\n", preset, len(res.OFDs))
		for _, r := range discovery.Top(discovery.Rank(ds.CleanRel, ds.FullOnt, res.OFDs), 5) {
			fmt.Printf("  %-36s score=%.3f synonym-share=%.0f%% classes=%d\n",
				r.OFD.Format(ds.CleanRel.Schema()), r.Score, 100*r.SynonymShare, r.ClassCount)
		}
		// Inheritance-only dependencies: hold through is-a families but
		// not as synonym OFDs.
		inhOpts := discovery.DefaultOptions()
		inhOpts.Mode = discovery.ModeInheritance
		inhOpts.Theta = ds.InhTheta
		inh := discovery.Discover(ds.CleanRel, ds.FullOnt, inhOpts)
		v := core.NewVerifier(ds.CleanRel, ds.FullOnt, nil)
		shown := 0
		fmt.Printf("%s: inheritance-only OFDs (hold at θ=%d, fail as synonym):\n", preset, ds.InhTheta)
		for _, d := range inh.OFDs {
			if d.LHS.Len() <= 1 && !v.HoldsSyn(d) {
				fmt.Printf("  %s\n", d.Format(ds.CleanRel.Schema()))
				shown++
				if shown >= 5 {
					break
				}
			}
		}
		fmt.Println()
	}
}

func max(a, b int) int {
	if a > b {
		return a
	}
	return b
}

func max64(a, b time.Duration) time.Duration {
	if a > b {
		return a
	}
	return b
}
