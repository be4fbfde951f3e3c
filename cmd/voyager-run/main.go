// voyager-run executes a configurable message-passing workload on a
// simulated StarT-Voyager machine and reports hardware-level statistics —
// a quick way to poke at the machine without writing a program.
//
// Usage:
//
//	voyager-run [-nodes n1,n2,...] [-mech basic|express|dma|reliable] [-count c] [-size s]
//	            [-faults plan] [-trace file.json] [-metrics file.json] [-dump n]
//	            [-series file.json] [-series-window 20us] [-strict-trace]
//	            [-seeds 1,2,3] [-parallel n] [-cpuprofile f] [-memprofile f]
//
// -trace writes a Chrome trace-event (Perfetto) file of the run; open it at
// ui.perfetto.dev. -metrics dumps the hierarchical metrics registry as JSON.
// Both are byte-identical across runs with the same arguments.
//
// -series attaches the windowed telemetry sampler (window width set by
// -series-window, simulated time) and writes the voyager-series/v1 export:
// per-window min/max/sum/count for every registered metric, O(windows)
// memory however long the run. Render it with voyager-stats. The sampler
// scrapes out of band and never perturbs simulated outcomes.
//
// -strict-trace attaches the trace ring and exits nonzero when it dropped
// events — the CI guard that a run's trace artifact is complete.
//
// -faults attaches a deterministic fault-injection plan to the network, e.g.
//
//	voyager-run -mech reliable -faults 'seed=7,drop=0.05,corrupt=0.02'
//	voyager-run -mech reliable -faults 'outage=1-0@20us:200us'
//
// See internal/fault.ParsePlan for the full plan grammar (drop/corrupt/dup/
// delay per lane, link outage windows, node deaths).
//
// -nodes takes a comma-separated machine-size list: a single count runs the
// workload once with full reporting; several counts run a node-count sweep
// and print one deterministic summary row per size (combinable with
// -parallel, not with the per-run artifact flags).
//
// -seeds runs the workload once per listed seed (each run re-seeds the fault
// plan) and prints a per-seed summary table — the quick schedule-robustness
// sweep. Each seed's machine is independent, so -parallel n fans the runs
// across up to n OS workers; the table is identical at any worker count.
// -seeds cannot be combined with the per-run artifacts (-trace/-metrics/-dump).
//
// -cpuprofile and -memprofile write runtime/pprof profiles of the simulator
// itself (inspect with `go tool pprof`); they profile the host process and
// never perturb simulated time.
package main

import (
	"flag"
	"fmt"
	"log"
	"os"

	"startvoyager/internal/bench"
	"startvoyager/internal/cluster"
	"startvoyager/internal/core"
	"startvoyager/internal/fault"
	"startvoyager/internal/prof"
	"startvoyager/internal/stats"
)

// runOpts is one machine run's configuration.
type runOpts struct {
	nodes int
	work  bench.AllToOne
	plan  *fault.Plan
}

// runResult is one run's observed machine and workload counters.
type runResult struct {
	bench.Observed
	bench.AllToOneResult
}

// runOnce drives the all-to-one workload on a fresh machine with the given
// instruments attached (see bench.Observe). It is a pure function of its
// arguments, so independent runs may execute on parallel workers.
func runOnce(o runOpts, capacity int, scfg *stats.SamplerConfig, profiler *prof.Profiler) runResult {
	cfg := cluster.DefaultConfig(o.nodes)
	cfg.Faults = o.plan
	var r runResult
	r.Observed = bench.Observe(cfg, capacity, scfg, profiler, func(m *core.Machine) {
		r.AllToOneResult = o.work.Run(m)
	})
	return r
}

func main() {
	nodes := flag.String("nodes", "4", "comma-separated node counts (all-to-one traffic; more than one count runs a sweep)")
	mech := flag.String("mech", "basic", "mechanism: basic, express, tagon, dma, reliable")
	count := flag.Int("count", 100, "messages (or transfers) per sender")
	size := flag.Int("size", 64, "payload bytes (dma: transfer bytes, line-aligned)")
	faults := flag.String("faults", "", "fault-injection plan (e.g. 'seed=7,drop=0.05,outage=1-0@20us:200us')")
	dumpN := flag.Int("dump", 0, "print the last N structured trace events")
	seeds := flag.String("seeds", "", "comma-separated fault-plan seeds: run once per seed and print a summary table")
	parallelN := flag.Int("parallel", 1, "max OS worker goroutines for the -seeds sweep (output is identical at any value)")
	inst := bench.NewInstruments(flag.CommandLine)
	flag.Parse()
	if err := inst.Start(); err != nil {
		log.Fatal(err)
	}

	nodeCounts, err := bench.ParseNodeList(*nodes)
	if err != nil {
		log.Fatalf("-nodes: %v", err)
	}
	opts := runOpts{nodes: nodeCounts[0], work: bench.AllToOne{Mech: *mech, Count: *count, Size: *size}}
	if err := opts.work.Check(); err != nil {
		log.Fatal(err)
	}
	if *faults != "" {
		if opts.plan, err = fault.ParsePlan(*faults); err != nil {
			log.Fatalf("-faults: %v", err)
		}
	}

	instrumented := inst.Requested() || *dumpN > 0
	switch {
	case len(nodeCounts) > 1:
		if instrumented || *seeds != "" {
			log.Fatalf("a -nodes sweep cannot be combined with -trace, -metrics, -series, -prof, -dump, or -seeds")
		}
		keys := make([]string, len(nodeCounts))
		for i, n := range nodeCounts {
			keys[i] = fmt.Sprint(n)
		}
		runSweep(fmt.Sprintf("node-count sweep — mechanism=%s messages/sender=%d", *mech, *count),
			"nodes", keys, *parallelN, func(i int) runOpts {
				o := opts
				o.nodes = nodeCounts[i]
				return o
			})
	case *seeds != "":
		if instrumented {
			log.Fatalf("-seeds cannot be combined with -trace, -metrics, -series, -prof, or -dump")
		}
		seedList, err := bench.ParseSeedList(*seeds)
		if err != nil {
			log.Fatalf("-seeds: %v", err)
		}
		keys := make([]string, len(seedList))
		for i, seed := range seedList {
			keys[i] = fmt.Sprint(seed)
		}
		runSweep(fmt.Sprintf("multi-seed sweep — mechanism=%s nodes=%d messages=%d per seed",
			*mech, opts.nodes, (opts.nodes-1)*(*count)),
			"seed", keys, *parallelN, func(i int) runOpts {
				o := opts
				if opts.plan != nil {
					p := *opts.plan
					p.Seed = seedList[i]
					o.plan = &p
				}
				return o
			})
		if opts.plan == nil {
			fmt.Println("note: no -faults plan attached; seeds have nothing to re-seed, runs are identical")
		}
	default:
		capacity := 0
		if inst.Tracing() || *dumpN > 0 {
			capacity = inst.TraceCap
		}
		r := runOnce(opts, capacity, inst.SamplerConfig, inst.Profiler)
		report(opts, r)
		meta := stats.RunMeta{Tool: "voyager-run", Mechanism: *mech, Nodes: opts.nodes, FaultPlan: *faults}
		if opts.plan != nil {
			meta.Seed = opts.plan.Seed
		}
		err = inst.Write(r.Observed, meta)
		if *dumpN > 0 {
			evs := r.Trace.Events()
			if len(evs) > *dumpN {
				evs = evs[len(evs)-*dumpN:]
			}
			fmt.Printf("\nlast %d structured trace events:\n", len(evs))
			for _, e := range evs {
				fmt.Println(e.String())
			}
		}
	}
	if err := inst.Stop(); err != nil {
		log.Fatal(err)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
}

// runSweep executes one uninstrumented run per row across up to workers
// goroutines and prints the per-row summary, first column key, in listed
// order. Delivery counters and simulated time are deterministic per run, so
// the table is byte-identical at any -parallel value.
func runSweep(title, key string, rows []string, workers int, row func(i int) runOpts) {
	results := bench.Cells(len(rows), workers, func(i int) runResult {
		return runOnce(row(i), 0, nil, nil)
	})
	t := &stats.Table{Title: title, Columns: []string{key, "delivered", "failed", "retransmits",
		"dup-suppressed", "rx-garbage", "sim-time"}}
	for i, r := range results {
		t.AddRow(rows[i], fmt.Sprint(r.Received), fmt.Sprint(r.Failed),
			fmt.Sprint(r.Retransmits), fmt.Sprint(r.DupSuppressed), fmt.Sprint(r.RxGarbage),
			r.SimTime.String())
	}
	fmt.Print(t)
}

// report prints the single-run statistics.
func report(opts runOpts, r runResult) {
	m := r.Machine
	fmt.Printf("mechanism=%s nodes=%d messages=%d simulated=%v\n",
		opts.work.Mech, opts.nodes, (opts.nodes-1)*opts.work.Count, r.SimTime)
	if opts.work.Mech == "reliable" {
		fmt.Printf("reliable: delivered=%d failed=%d bound=%v\n", r.Received, r.Failed, m.RelBound())
	}
	if m.Faults != nil {
		fs := m.Faults.Stats()
		fmt.Printf("faults: drops=%d corrupted=%d duplicated=%d delayed=%d outage-drops=%d death-drops=%d\n",
			fs.InjectedDrops, fs.Corrupted, fs.Duplicated, fs.Delayed, fs.OutageDrops, fs.DeathDrops)
		fmt.Printf("recovery: retransmits=%d dup-suppressed=%d rx-garbage=%d\n",
			r.Retransmits, r.DupSuppressed, r.RxGarbage)
	}
	t := &stats.Table{
		Title:   "per-node statistics",
		Columns: []string{"node", "aP-busy", "sP-busy", "bus-busy", "ibus-busy", "tx-msgs", "rx-msgs"},
	}
	for _, n := range m.Nodes {
		cs := n.Ctrl.Stats()
		t.AddRow(fmt.Sprint(n.ID),
			n.APMeter.BusyTime().String(),
			n.FW.BusyTime().String(),
			n.Bus.BusyTime().String(),
			n.Ctrl.IBusBusyTime().String(),
			fmt.Sprint(cs.TxMessages),
			fmt.Sprint(cs.RxMessages))
	}
	fmt.Print(t)
}
