package main

import (
	"context"
	"fmt"
)

// runSelfcheck asserts, for every workload, that the default seed passes
// every output check and repeats exactly (simulated end time, event count
// and every simulated counter), that the held-out seed passes every output
// check too, and that it changes the simulated end time. It returns the
// process exit code.
func runSelfcheck() int {
	ctx, cancel := context.WithTimeout(context.Background(), 10*runCap)
	defer cancel()
	code := 0
	for _, w := range workloads {
		var got []sample
		for _, seed := range []uint64{defaultSeed, defaultSeed, heldOutSeed} {
			s, err := runChild(ctx, w, seed, false)
			if err != nil {
				fmt.Println("FAIL", err)
				return 1
			}
			got = append(got, s)
		}
		a, b, h := got[0], got[1], got[2]
		var problems []string
		for i, s := range got {
			if s.Failed != 0 || s.Stall != "" {
				problems = append(problems, fmt.Sprintf("run %d: %d of %d ops failed %s",
					i, s.Failed, s.Attempted, s.Stall))
			}
		}
		if a.EndNs != b.EndNs || a.Events != b.Events || a.Counters != b.Counters {
			problems = append(problems, fmt.Sprintf("seed %d does not repeat: end %d/%d ns, events %d/%d, counters %+v / %+v",
				defaultSeed, a.EndNs, b.EndNs, a.Events, b.Events, a.Counters, b.Counters))
		}
		if h.EndNs == a.EndNs {
			problems = append(problems, fmt.Sprintf("seeds %d and %d end at the same %d ns",
				defaultSeed, heldOutSeed, a.EndNs))
		}
		verdict := "ok  "
		if len(problems) > 0 {
			verdict, code = "FAIL", 1
		}
		fmt.Printf("%s %-9s seed %d: %d ops, end %d ns, %d events; seed %d: %d ops, end %d ns\n",
			verdict, w.name, defaultSeed, a.Attempted, a.EndNs, a.Events, heldOutSeed, h.Attempted, h.EndNs)
		for _, p := range problems {
			fmt.Println("    ", p)
		}
	}
	return code
}
