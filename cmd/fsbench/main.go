// Command fsbench regenerates the paper's tables and figures.
//
// Usage:
//
//	fsbench -list            # list available figure ids
//	fsbench -fig fig7        # regenerate one figure
//	fsbench -fig all         # regenerate everything (a few minutes)
//	fsbench -fig fig2 -quick # shorter windows, noisier numbers
//	fsbench -fig all -parallel 4   # bound the worker pool
//	fsbench -fig multidev -quick -json > BENCH_multidevice.json
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"

	"fastsafe/internal/experiments"
	"fastsafe/internal/runner"
)

func main() {
	fig := flag.String("fig", "all", "figure id to regenerate, or 'all'")
	quick := flag.Bool("quick", false, "use short measurement windows")
	list := flag.Bool("list", false, "list available figure ids")
	parallel := flag.Int("parallel", runtime.NumCPU(), "simulations to run concurrently")
	csv := flag.Bool("csv", false, "emit comma-separated values instead of aligned tables")
	jsonOut := flag.Bool("json", false, "emit JSON instead of aligned tables (for CI artifacts)")
	progress := flag.Bool("progress", true, "report per-figure progress on stderr (with -fig all)")
	flag.Parse()

	render := func(t experiments.Table) string {
		switch {
		case *jsonOut:
			return t.JSON()
		case *csv:
			return fmt.Sprintf("# %s: %s\n%s", t.ID, t.Title, t.CSV())
		}
		return t.String()
	}

	if *list {
		for _, id := range experiments.IDs() {
			fmt.Println(id)
		}
		return
	}

	opts := experiments.Default()
	if *quick {
		opts = experiments.Quick()
	}
	opts.Parallel = *parallel

	if *fig == "all" {
		// Each figure is an independent deterministic computation; fan the
		// figures themselves across the pool (each additionally fans out
		// its own simulation cells) and print in presentation order.
		ids := experiments.IDs()
		jobs := make([]runner.Job[experiments.Table], len(ids))
		for i, id := range ids {
			id := id
			jobs[i] = func() (experiments.Table, error) {
				return experiments.ByID(id, opts)
			}
		}
		cfg := runner.Config{Workers: *parallel}
		if *progress {
			cfg.OnProgress = func(p runner.Progress) {
				fmt.Fprintf(os.Stderr, "fsbench: %s done (%d/%d)\n", ids[p.Index], p.Done, p.Total)
			}
		}
		// A failed or skipped figure's table is the zero Table; the ones
		// before it print, then the failure (a panic's text names its
		// figure).
		tables, err := runner.Collect(cfg, jobs)
		for _, t := range tables {
			if t.ID == "" {
				break
			}
			fmt.Println(render(t))
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, "fsbench:", err)
			os.Exit(1)
		}
		return
	}
	t, err := experiments.ByID(*fig, opts)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	fmt.Println(render(t))
}
