// voyager-bench regenerates the paper's evaluation figures on the simulated
// machine and prints them as tables.
//
// Usage:
//
//	voyager-bench [-fig 3|4|ext-a|ext-b|ext-c|all|none] [-max-size bytes]
//	              [-trace file.json] [-metrics file.json] [-trace-cap n]
//	              [-series file.json] [-series-window 20us] [-strict-trace]
//	              [-headline file.json] [-diff baseline.json]
//	              [-fault-matrix] [-fault-seeds 1,2,3] [-faults-json file.json]
//	              [-parallel n]
//	              [-scale file.json] [-scale-diff baseline.json] [-nodes 64,256,1024]
//	              [-cpuprofile file] [-memprofile file]
//
// -trace / -metrics / -series execute the canonical instrumented run (every
// mechanism on a four-node machine) and export its Perfetto trace / metrics
// registry / windowed voyager-series/v1 telemetry; combine with -fig none to
// produce only the observability artifacts. -strict-trace exits nonzero if
// the canonical run's trace ring dropped events.
//
// -headline writes the deterministic headline latencies (mean traced
// end-to-end latency per MP mechanism) as JSON; -diff recomputes them and
// exits nonzero if any latency regressed more than 10% against the given
// baseline file. BENCH_baseline.json in the repo root is the committed
// baseline that CI diffs against (regenerate with make bench-baseline).
//
// -fault-matrix runs the reliability smoke matrix (drop, corrupt, outage and
// node-death scenarios at each seed in -fault-seeds); -faults-json writes
// every cell's metrics registry to one JSON artifact.
//
// -parallel n fans the independent cells of the headline probe and the fault
// matrix across n worker goroutines. Each cell owns a private engine, so the
// printed tables and JSON artifacts are byte-identical at any -parallel
// value; only wall-clock changes (CI enforces this with a byte-for-byte
// diff, see `make faults-check`).
//
// -cpuprofile / -memprofile capture pprof profiles of whatever the
// invocation runs. Host cost is measured end to end by hostbench/ and per
// kernel path by `go test -bench`; this tool reports simulated results.
//
// -scale runs the machine-size sweep (-nodes, default 64,256,1024): per-node
// heap footprint, MPI allreduce/samplesort completion, and the
// per-tree-level hotspot saturation profile, written as voyager-scale/v1
// JSON (`make bench-scale-baseline` keeps BENCH_scale.json current).
// -scale-diff recomputes the sweep and exits nonzero if any
// bytes/node figure regressed more than 10% against the given baseline
// (`make bench-scale` is the CI gate). -nodes also overrides fig ext-f's
// machine sizes.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"log"
	"os"

	"startvoyager/internal/bench"
	"startvoyager/internal/stats"
	"startvoyager/internal/workload"
)

func main() {
	fig := flag.String("fig", "all", "figure to regenerate: 3, 4, ext-a..ext-l, all, none")
	maxSize := flag.Int("max-size", 256<<10, "largest transfer size in the sweep")
	headlineFile := flag.String("headline", "", "write the headline per-mechanism latencies as JSON")
	diffBase := flag.String("diff", "", "diff headline latencies against this baseline JSON; exit 1 on >10% regression")
	faultMatrix := flag.Bool("fault-matrix", false, "run the fault-injection smoke matrix")
	faultSeeds := flag.String("fault-seeds", "1,2,3", "comma-separated fault seeds for the matrix")
	faultMsgs := flag.Int("fault-msgs", 30, "reliable messages per fault-matrix cell")
	faultsJSON := flag.String("faults-json", "", "write the fault matrix's per-cell metrics as one JSON file")
	parallelN := flag.Int("parallel", 1, "worker goroutines for independent sweep cells (output is byte-identical at any value)")
	scaleFile := flag.String("scale", "", "run the scale sweep and write bytes/node + sim results as JSON (voyager-scale/v1)")
	scaleDiff := flag.String("scale-diff", "", "diff the scale sweep's bytes/node against this baseline JSON; exit 1 on >10% regression")
	nodesFlag := flag.String("nodes", "", "comma-separated node counts for the scale sweep and fig ext-f (e.g. 64,256,1024)")
	inst := bench.NewInstruments(flag.CommandLine)
	flag.Parse()
	if err := inst.Start(); err != nil {
		log.Fatal(err)
	}
	// exit flushes the host profiles first: os.Exit skips deferred calls.
	exit := func(code int) {
		if err := inst.Stop(); err != nil {
			log.Fatal(err)
		}
		os.Exit(code)
	}
	write := func(path string, w func(io.Writer) error) {
		if err := bench.WriteFile(path, w); err != nil {
			log.Fatal(err)
		}
	}

	sizes := []int{}
	for _, s := range bench.Fig3Sizes {
		if s <= *maxSize {
			sizes = append(sizes, s)
		}
	}

	ran := false
	if inst.Requested() {
		obs := bench.ObservedRun(inst.TraceCap, inst.SamplerConfig, inst.Profiler)
		if err := inst.Write(obs, stats.RunMeta{Tool: "voyager-bench", Mechanism: "mixed", Nodes: 4}); err != nil {
			fmt.Fprintln(os.Stderr, err)
			exit(1)
		}
		ran = true
	}
	if *headlineFile != "" || *diffBase != "" {
		// Read the baseline before anything writes to its path — -headline
		// and -diff may point at the same file.
		baseline := readBaseline("-diff", *diffBase)
		latencies := bench.HeadlineLatencies(*parallelN)
		if *headlineFile != "" {
			write(*headlineFile, func(w io.Writer) error { return bench.WriteHeadline(w, latencies) })
			fmt.Printf("headline: %s\n", *headlineFile)
		}
		if baseline != nil && !bench.DiffHeadline(baseline, latencies, os.Stdout) {
			exit(1)
		}
		ran = true
	}
	var nodeCounts []int
	if *nodesFlag != "" {
		var err error
		nodeCounts, err = bench.ParseNodeList(*nodesFlag)
		if err != nil {
			log.Fatalf("-nodes: %v", err)
		}
	}
	if *scaleFile != "" || *scaleDiff != "" {
		// Read the baseline before anything writes to its path — -scale and
		// -scale-diff may legitimately point at the same file.
		baseline := readBaseline("-scale-diff", *scaleDiff)
		results := bench.RunScale(bench.ScaleOpts{NodeCounts: nodeCounts})
		fmt.Print(bench.ScaleTable(results))
		fmt.Println()
		fmt.Print(bench.SaturationTable(results[len(results)-1]))
		fmt.Println()
		fmt.Print(bench.ScaleFootprintTable(results))
		fmt.Println()
		if *scaleFile != "" {
			write(*scaleFile, func(w io.Writer) error { return bench.WriteScale(w, results) })
			fmt.Printf("scale: %s\n", *scaleFile)
		}
		if baseline != nil && !bench.DiffScale(baseline, results, os.Stdout) {
			exit(1)
		}
		ran = true
	}
	show := func(name string, fn func()) {
		if *fig == "all" || *fig == name {
			fn()
			fmt.Println()
			ran = true
		}
	}
	show("3", func() { fmt.Print(bench.Fig3Latency(sizes)) })
	show("4", func() { fmt.Print(bench.Fig4Bandwidth(sizes)) })
	show("ext-a", func() { fmt.Print(bench.ExtAEarlyNotification(sizes)) })
	show("ext-b", func() { fmt.Print(bench.ExtBOccupancy(64 << 10)) })
	show("ext-c", func() { fmt.Print(bench.ExtCMechanisms()) })
	show("ext-d", func() { fmt.Print(bench.ExtDReflective()) })
	show("ext-e", func() { fmt.Print(bench.ExtEQueueCaching()) })
	show("ext-f", func() {
		counts := nodeCounts
		if counts == nil {
			counts = []int{2, 4, 8, 16}
		}
		fmt.Print(bench.ExtFCollectives(counts))
	})
	show("ext-g", func() {
		fmt.Print(bench.ExtGNetworkScaling(64 << 10))
		fmt.Println()
		fmt.Print(bench.ExtGTopology(64 << 10))
	})
	show("ext-h", func() { fmt.Print(bench.ExtHFirmwareSpeed(64 << 10)) })
	show("ext-i", func() { fmt.Print(bench.ExtIMultitasking()) })
	show("ext-j", func() {
		fmt.Print(workload.Table(8, 100, 64, []workload.Pattern{
			workload.Uniform, workload.Hotspot, workload.Neighbor, workload.Transpose}))
	})
	show("ext-k", func() {
		fmt.Print(bench.ExtKProtocolVariants())
		fmt.Println()
		fmt.Print(bench.ExtKStencil(64, 8, 4))
	})
	show("ext-l", func() { fmt.Print(bench.ExtLReliability(50, bench.ExtLDrops)) })
	if *faultMatrix || *faultsJSON != "" {
		seeds, err := bench.ParseSeedList(*faultSeeds)
		if err != nil {
			log.Fatalf("-fault-seeds: %v", err)
		}
		table, runs := bench.FaultMatrix(*faultMsgs, seeds, *parallelN)
		fmt.Print(table)
		fmt.Println()
		if *faultsJSON != "" {
			write(*faultsJSON, func(w io.Writer) error { return writeFaultRuns(w, runs) })
			fmt.Printf("fault metrics: %s\n", *faultsJSON)
		}
		ran = true
	}
	if !ran && *fig != "none" {
		fmt.Fprintf(os.Stderr, "unknown figure %q\n", *fig)
		exit(2)
	}
	exit(0)
}

// readBaseline returns the contents of a gate's baseline file, or nil when
// the gate was not requested (path empty).
func readBaseline(flagName, path string) []byte {
	if path == "" {
		return nil
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		log.Fatalf("%s: %v", flagName, err)
	}
	return raw
}

// writeFaultRuns renders the fault matrix as one JSON document: a summary
// plus the full metrics registry per cell (the CI artifact).
func writeFaultRuns(w io.Writer, runs []bench.FaultRun) error {
	type cell struct {
		Scenario  string          `json:"scenario"`
		Seed      uint64          `json:"seed"`
		Delivered int             `json:"delivered"`
		Failed    int             `json:"failed"`
		Metrics   json.RawMessage `json:"metrics"`
	}
	doc := struct {
		Schema string `json:"schema"`
		Cells  []cell `json:"cells"`
	}{Schema: "voyager-fault-matrix/v1"}
	for _, r := range runs {
		var buf bytes.Buffer
		if err := r.Reg.WriteJSON(&buf, r.Now); err != nil {
			return err
		}
		doc.Cells = append(doc.Cells, cell{
			Scenario: r.Scenario, Seed: r.Seed,
			Delivered: r.Delivered, Failed: r.Failed,
			Metrics: json.RawMessage(bytes.TrimSpace(buf.Bytes())),
		})
	}
	out, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		return err
	}
	_, err = w.Write(append(out, '\n'))
	return err
}
