// voyager-path runs an instrumented message-passing workload and prints the
// causal critical-path report: every traced message's lifecycle reconstructed
// from the event ring, with its end-to-end latency attributed to named
// pipeline stages (tx-queue-wait, bus-tenure, net-flight, rx-queue-wait,
// sp-dispatch, retransmit-penalty, ...) — the paper's Section 6 style
// "where does each microsecond go" breakdown, per mechanism.
//
// Usage:
//
//	voyager-path [-nodes n] [-mech basic|express|tagon|dma|reliable] [-count c]
//	             [-size s] [-faults plan] [-top n] [-json] [-metrics file.json]
//	             [-trace file.json] [-trace-cap n]
//
// Output is deterministic: two runs with the same arguments produce
// byte-identical reports. -json replaces the text waterfall with the
// voyager-path/v1 JSON document (run metadata, summary counts, aggregate
// stage attribution, and every chain's per-stage breakdown) on stdout. -top limits the per-message waterfall blocks to the
// n slowest delivered messages (0 = all). -metrics adds the per-stage latency
// histograms to the dumped registry under path/. -trace writes the Perfetto
// export, whose flow arrows link each message's events across tracks.
package main

import (
	"flag"
	"fmt"
	"io"
	"log"
	"os"

	"startvoyager/internal/bench"
	"startvoyager/internal/cluster"
	"startvoyager/internal/core"
	"startvoyager/internal/fault"
	"startvoyager/internal/stats"
	"startvoyager/internal/trace"
)

func main() {
	nodes := flag.Int("nodes", 2, "number of nodes (all-to-one traffic)")
	mech := flag.String("mech", "basic", "mechanism: basic, express, tagon, dma, reliable")
	count := flag.Int("count", 8, "messages (or transfers) per sender")
	size := flag.Int("size", 32, "payload bytes (dma: transfer bytes, line-aligned)")
	faults := flag.String("faults", "", "fault-injection plan (e.g. 'seed=7,drop=0.05')")
	top := flag.Int("top", 0, "show only the n slowest delivered messages (0 = all)")
	jsonOut := flag.Bool("json", false, "emit the voyager-path/v1 JSON document instead of the text waterfall")
	metricsFile := flag.String("metrics", "", "write the metrics registry (with path/ histograms) as JSON")
	traceFile := flag.String("trace", "", "write a Perfetto trace with per-message flow arrows")
	traceCap := flag.Int("trace-cap", 1<<19, "trace ring capacity (oldest events drop beyond this)")
	flag.Parse()

	if err := bench.CheckNodeCount(*nodes); err != nil {
		log.Fatalf("-nodes: %v", err)
	}
	work := bench.AllToOne{Mech: *mech, Count: *count, Size: *size}
	if err := work.Check(); err != nil {
		log.Fatal(err)
	}
	cfg := cluster.DefaultConfig(*nodes)
	if *faults != "" {
		plan, err := fault.ParsePlan(*faults)
		if err != nil {
			log.Fatalf("-faults: %v", err)
		}
		cfg.Faults = plan
	}
	m := core.NewMachineConfig(cfg)
	tbuf := m.Trace(*traceCap)
	if r := work.Run(m); r.Failed > 0 {
		fmt.Fprintf(os.Stderr, "reliable: %d sends failed\n", r.Failed)
	}

	analysis := trace.AnalyzePaths(tbuf.Events())
	if *top > 0 {
		analysis = analysis.Slowest(*top)
	}
	meta := &stats.RunMeta{Tool: "voyager-path", Mechanism: *mech, Nodes: *nodes,
		FaultPlan: *faults, SimTimeNs: int64(m.Eng.Now())}
	if cfg.Faults != nil {
		meta.Seed = cfg.Faults.Seed
	}
	if *jsonOut {
		// Pure JSON on stdout: the header line would corrupt the document.
		if err := analysis.WriteJSON(os.Stdout, meta); err != nil {
			log.Fatal(err)
		}
	} else {
		fmt.Printf("mechanism=%s nodes=%d senders=%d count=%d simulated=%v\n\n",
			*mech, *nodes, *nodes-1, *count, m.Eng.Now())
		if err := analysis.WriteWaterfall(os.Stdout); err != nil {
			log.Fatal(err)
		}
	}

	if *metricsFile != "" {
		analysis.RegisterMetrics(m.Metrics().Child("path"))
		err := bench.WriteFile(*metricsFile, func(w io.Writer) error {
			return m.Metrics().WriteJSONMeta(w, m.Eng.Now(), meta)
		})
		if err != nil {
			log.Fatal(err)
		}
		if !*jsonOut {
			fmt.Printf("\nmetrics: %s\n", *metricsFile)
		}
	}
	if *traceFile != "" {
		if err := bench.WriteFile(*traceFile, tbuf.WritePerfetto); err != nil {
			log.Fatal(err)
		}
		if !*jsonOut {
			fmt.Printf("\ntrace: %s\n", *traceFile)
		}
	}
	if d := tbuf.Stats().Dropped; d > 0 {
		fmt.Fprintf(os.Stderr, "WARNING: trace ring dropped %d events; chains may be orphaned (raise -trace-cap)\n", d)
	}
}
