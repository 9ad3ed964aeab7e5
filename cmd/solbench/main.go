// Command solbench regenerates the tables and figures of the SOL
// paper's evaluation on the simulated node.
//
// Usage:
//
//	solbench -list
//	solbench -exp fig3
//	solbench -exp fig1,fig7 -quick
//	solbench -exp all
//
// Output rows mirror what each paper table or figure reports. The
// Quick-scale metrics are pinned by
// internal/experiments/testdata/fingerprint.quick.txt and the paper's
// shapes by the experiments package's *Shapes tests; a
// paper-vs-measured table is ROADMAP item 1(a), not yet written.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"
	"time"

	"sol/internal/experiments"
)

func main() {
	var (
		exp   = flag.String("exp", "all", "comma-separated experiment ids, or 'all'")
		quick = flag.Bool("quick", false, "run shortened horizons")
		list  = flag.Bool("list", false, "list experiment ids and exit")
	)
	flag.Parse()

	if *list {
		for _, id := range experiments.IDs() {
			fmt.Printf("%-18s %s\n", id, experiments.Title(id))
		}
		return
	}

	ids := experiments.IDs()
	if *exp != "all" {
		ids = strings.Split(*exp, ",")
	}
	scale := experiments.Full
	if *quick {
		scale = experiments.Quick
	}

	failed := false
	for _, id := range ids {
		id = strings.TrimSpace(id)
		start := time.Now()
		res, err := experiments.Run(id, scale)
		if err != nil {
			fmt.Fprintf(os.Stderr, "solbench: %v\n", err)
			failed = true
			continue
		}
		fmt.Print(res)
		fmt.Printf("(%s wall time)\n\n", time.Since(start).Round(time.Millisecond))
	}
	if failed {
		os.Exit(1)
	}
}
