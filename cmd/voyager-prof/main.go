// voyager-prof renders simulated-time profiles captured by voyager-run or
// voyager-bench with -prof (the voyager-prof/v1 JSON export).
//
// Usage:
//
//	voyager-prof [-top n] profile.json            render the report
//	voyager-prof -folded out.folded profile.json  re-export folded stacks
//	voyager-prof -pprof out.pb profile.json       re-export pprof protobuf
//	voyager-prof -diff [-top n] a.json b.json     self-time delta table
//
// The report shows the hottest frames by self and cumulative simulated time,
// per-group occupancy (busy time over the run length, for node<i>/aP and
// node<i>/sP), and component rollups across nodes (node*/aP, node*/sP). All
// output is byte-deterministic for identical inputs.
//
// Profiles record simulated time, not host time: "self" on a frame is the
// simulated duration procs spent executing (Delay, Call waits) with that
// frame on top of their attribution stack, and wait leaves (wait:<cond>,
// queue:<queue>) are the time spent blocked there.
package main

import (
	"flag"
	"fmt"
	"log"
	"os"

	"startvoyager/internal/bench"
	"startvoyager/internal/prof"
)

func main() {
	topN := flag.Int("top", 10, "rows in the top-N tables")
	folded := flag.String("folded", "", "write folded flame-graph stacks to this file")
	pprofOut := flag.String("pprof", "", "write a pprof protobuf profile to this file")
	diff := flag.Bool("diff", false, "compare two profiles: self-time delta table (args: old.json new.json)")
	flag.Parse()

	if *diff {
		if flag.NArg() != 2 {
			log.Fatalf("-diff needs exactly two profile files (old.json new.json)")
		}
		a, err := prof.ReadDocFile(flag.Arg(0))
		if err != nil {
			log.Fatal(err)
		}
		b, err := prof.ReadDocFile(flag.Arg(1))
		if err != nil {
			log.Fatal(err)
		}
		if err := prof.WriteDiff(os.Stdout, a, b, *topN); err != nil {
			log.Fatal(err)
		}
		return
	}

	if flag.NArg() != 1 {
		fmt.Fprintln(os.Stderr, "usage: voyager-prof [-top n] [-folded out] [-pprof out] profile.json")
		fmt.Fprintln(os.Stderr, "       voyager-prof -diff old.json new.json")
		os.Exit(2)
	}
	d, err := prof.ReadDocFile(flag.Arg(0))
	if err != nil {
		log.Fatal(err)
	}

	wrote := false
	if *folded != "" {
		if err := bench.WriteFile(*folded, d.WriteFolded); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("folded: %s\n", *folded)
		wrote = true
	}
	if *pprofOut != "" {
		if err := bench.WriteFile(*pprofOut, d.WritePprof); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("pprof: %s\n", *pprofOut)
		wrote = true
	}
	if wrote {
		return
	}
	if err := d.WriteReport(os.Stdout, *topN); err != nil {
		log.Fatal(err)
	}
}
