// Auctionwatch: the paper's motivating workload. Generate an XMark-
// style auction site, run the benchmark queries Q1/Q2 and some
// analytics, and compare the staircase join variants with and without
// the early name test — Experiments 2 and 3 in miniature. (The
// tree-unaware baselines of Experiments 1 and 3 are comparators of the
// experiment harness: `go run ./cmd/benchrun -exp fig11e`, likewise
// fig11a and fig11f.)
//
//	go run ./examples/auctionwatch [-size 2]
package main

import (
	"flag"
	"fmt"
	"log"
	"time"

	"staircase"
)

func main() {
	size := flag.Float64("size", 2, "document size in MB")
	flag.Parse()

	fmt.Printf("generating %.1f MB auction site...\n", *size)
	d, err := staircase.GenerateXMark(*size, 7)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("%d nodes, height %d\n\n", d.NumNodes(), d.Height())

	// The paper's benchmark queries.
	queries := []struct{ name, q string }{
		{"Q1 (education of profiled people)", "/descendant::profile/descendant::education"},
		{"Q2 (bidders that raised)", "/descendant::increase/ancestor::bidder"},
		{"Q2 rewrite (Olteanu et al.)", "/descendant::bidder[descendant::increase]"},
		{"auctions without bids", "//open_auction[not(bidder)]"},
		{"second bid of each auction", "//open_auction/bidder[2]/increase"},
	}

	configs := []struct {
		name string
		opts staircase.Options
	}{
		{"staircase (skip+estimate)", staircase.Options{Strategy: staircase.Staircase, Pushdown: staircase.PushNever}},
		{"staircase + early nametest", staircase.Options{Strategy: staircase.Staircase, Pushdown: staircase.PushAlways}},
		{"staircase, plain skipping", staircase.Options{Strategy: staircase.StaircaseSkip, Pushdown: staircase.PushNever}},
		{"staircase, no skipping", staircase.Options{Strategy: staircase.StaircaseNoSkip, Pushdown: staircase.PushNever}},
	}

	for _, q := range queries {
		fmt.Printf("%s\n  %s\n", q.name, q.q)
		expect := -1
		for _, cfg := range configs {
			start := time.Now()
			res, err := d.Query(q.q, &cfg.opts)
			if err != nil {
				log.Fatal(err)
			}
			dur := time.Since(start)
			if expect == -1 {
				expect = len(res.Nodes)
			} else if len(res.Nodes) != expect {
				log.Fatalf("engines disagree: %d vs %d", len(res.Nodes), expect)
			}
			fmt.Printf("  %-28s %6d nodes  %10.3fms\n",
				cfg.name, len(res.Nodes), float64(dur.Microseconds())/1000)
		}
		fmt.Println()
	}

	// Work counters: what the staircase join actually touched for Q2.
	res, err := d.Query("/descendant::increase/ancestor::bidder",
		&staircase.Options{Strategy: staircase.Staircase, Pushdown: staircase.PushNever})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("staircase join work counters (Q2):")
	for i, s := range res.Steps {
		fmt.Printf("  step %d %-28s context %d -> pruned %d, scanned %d (copied %d), skipped %d\n",
			i+1, s.Step, s.Core.ContextSize, s.Core.PrunedSize,
			s.Core.Scanned, s.Core.Copied, s.Core.Skipped)
	}
}
