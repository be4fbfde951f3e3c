// Command hostbench measures what the simulator costs on the host for four
// canonical runs: set-up time, run time, CPU time and peak memory end to
// end, and, in a separate traced run, how host time divides among the
// repository's modules. BENCHMARK.json at the repository root lists the
// workloads and metrics; rationale.json beside this file gives each
// workload's op definition and which end-to-end metric each layer metric
// should move.
//
// Usage, from the repository root:
//
//	bash hostbench/run.sh --workload sort --seed 1 --seconds 20 --trace 0
//	bash hostbench/run.sh --selfcheck
//
// Each measured machine runs in a child process of its own (this binary,
// re-executed with -child). Machines are never torn down, since their procs
// park forever, so a second machine in the same process would run on the
// first one's heap and goroutines, and the process's peak RSS would no
// longer be one machine's. The parent repeats children, one at a time,
// until --seconds have passed and reports medians; the last line of its
// standard output is one JSON object. Host times are normalized by a
// calibration kernel the parent runs between children (calib.go).
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"sort"
	"strconv"
	"time"
)

const (
	minChildren = 3   // per run, however short --seconds is
	startCap    = 120 // seconds: no child starts later, so a run ends within 180
	runCap      = 170 * time.Second

	defaultSeed = 1
	heldOutSeed = 2 // never used while the workloads were sized
)

func main() {
	name := flag.String("workload", "", "workload: sort, hotspot, reliable or allreduce")
	seed := flag.Uint64("seed", defaultSeed, "seed every workload input derives from")
	secs := flag.Int("seconds", 20, "how long to keep measuring")
	traceMode := flag.Int("trace", 0, "0: end-to-end metrics; 1: per-layer metrics from a traced run")
	child := flag.Bool("child", false, "measure one machine and print its sample as JSON (used by the parent)")
	traced := flag.Bool("traced", false, "with -child: record the CPU profile and the post-construction heap")
	selfcheck := flag.Bool("selfcheck", false, "check output correctness and seed determinism of every workload")
	flag.Parse()

	if *selfcheck {
		os.Exit(runSelfcheck())
	}
	w, err := lookupWorkload(*name)
	if err != nil {
		fatal(err)
	}
	if *child {
		if err := json.NewEncoder(os.Stdout).Encode(measureOne(w, *seed, *traced)); err != nil {
			fatal(err)
		}
		return
	}
	if *traceMode != 0 && *traceMode != 1 {
		fatal(fmt.Errorf("-trace must be 0 or 1, not %d", *traceMode))
	}
	ctx, cancel := context.WithTimeout(context.Background(), runCap)
	defer cancel()
	samples, err := collect(ctx, w, *seed, *secs, *traceMode == 1)
	if err != nil {
		fatal(err)
	}
	rep := summarize(samples, *traceMode == 1)
	fmt.Printf("hostbench: workload %s, seed %d, %d machines, one per process\n",
		w.name, *seed, len(samples))
	for _, m := range rep.order {
		fmt.Printf("  %-28s %14.6g %s\n", m, rep.Metrics[m].Value, rep.Metrics[m].Unit)
	}
	out, err := json.Marshal(rep)
	if err != nil {
		fatal(err)
	}
	fmt.Println(string(out))
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "hostbench:", err)
	os.Exit(1)
}

// runChild measures one machine in a fresh process of this binary, on one
// P: the simulator runs one proc at a time, and a second P would only let
// the timings follow whether the host's other core is free at the moment
// for the GC's background worker and for goroutine handoff.
func runChild(ctx context.Context, w *workload, seed uint64, traced bool) (sample, error) {
	exe, err := os.Executable()
	if err != nil {
		return sample{}, err
	}
	cmd := exec.CommandContext(ctx, exe, "-child", "-workload", w.name,
		"-seed", strconv.FormatUint(seed, 10), "-traced="+strconv.FormatBool(traced))
	cmd.Env = append(os.Environ(), "GOMAXPROCS=1")
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	if err != nil {
		return sample{}, fmt.Errorf("%s seed %d: child: %w", w.name, seed, err)
	}
	var s sample
	if err := json.Unmarshal(out, &s); err != nil {
		return sample{}, fmt.Errorf("%s seed %d: child output: %w", w.name, seed, err)
	}
	return s, nil
}

// collect runs children until secs have passed. In traced mode they
// alternate untraced and traced, so the untraced ones give the baseline the
// traced ones' overhead is measured against. The calibration kernel runs
// just before each child.
func collect(ctx context.Context, w *workload, seed uint64, secs int, traced bool) ([]sample, error) {
	cal := newCalibrator()
	start := wallClock()
	need := minChildren
	if traced {
		need = 4
	}
	var out []sample
	for len(out) < need || seconds(start, wallClock()) < float64(secs) {
		if len(out) > 0 && seconds(start, wallClock()) > startCap {
			break
		}
		calib := cal.time()
		s, err := runChild(ctx, w, seed, traced && len(out)%2 == 1)
		if err != nil {
			return nil, err
		}
		s.CalibS = calib
		out = append(out, s)
	}
	return out, nil
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report is the result line the benchmark contract defines.
type report struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
	order     []string
}

func (r *report) add(name, unit string, v float64) {
	r.Metrics[name] = metric{Value: v, Unit: unit}
	r.order = append(r.order, name)
}

func median(samples []sample, f func(sample) float64) float64 {
	if len(samples) == 0 {
		return 0
	}
	v := make([]float64, len(samples))
	for i, s := range samples {
		v[i] = f(s)
	}
	sort.Float64s(v)
	if n := len(v); n%2 == 0 {
		return (v[n/2-1] + v[n/2]) / 2
	}
	return v[len(v)/2]
}

// norm expresses a host time of one sample at the reference host speed.
func norm(s sample, t float64) float64 { return t * refCalibS / s.CalibS }

func ratio(num, den uint64) float64 {
	if den == 0 {
		return 0
	}
	return float64(num) / float64(den)
}

const mb = 1 << 20

// layerShares are the CPU-profile groups reported as per-layer metrics, in
// report order.
var layerShares = []struct{ group, metric string }{
	{"sim", "sim.cpu_share"}, {"core", "core.cpu_share"}, {"mpi", "mpi.cpu_share"},
	{"bus", "bus.cpu_share"}, {"cache", "cache.cpu_share"}, {"mem", "mem.cpu_share"},
	{"niu", "niu.cpu_share"}, {"firmware", "firmware.cpu_share"},
	{"arctic", "arctic.cpu_share"}, {"fault", "fault.cpu_share"},
	{"cluster", "cluster.cpu_share"}, {"instr", "instr.cpu_share"},
	{"runtime.sched", "runtime.sched_share"}, {"runtime.gc", "runtime.gc_share"},
	{"app", "app.cpu_share"}, {unattributed, "unattributed.cpu_share"},
}

// summarize reduces one run's samples to the contract's result line. Every
// sample ran the same seed, so the simulated outcome must repeat exactly;
// a difference makes the run incorrect.
func summarize(samples []sample, traced bool) *report {
	rep := &report{Correct: true, Metrics: map[string]metric{}}
	first := samples[0]
	var plain, tr []sample
	for _, s := range samples {
		rep.Attempted += s.Attempted
		rep.Failed += s.Failed
		if s.Failed != 0 || s.Stall != "" || s.Events != first.Events ||
			s.EndNs != first.EndNs || s.Counters != first.Counters {
			rep.Correct = false
		}
		if s.Traced {
			tr = append(tr, s)
		} else {
			plain = append(plain, s)
		}
	}
	if !traced {
		rep.add("setup_s", "s", median(plain, func(s sample) float64 { return norm(s, s.SetupS) }))
		rep.add("run_s", "s", median(plain, func(s sample) float64 { return norm(s, s.RunS) }))
		rep.add("cpu_s", "s", median(plain, func(s sample) float64 { return norm(s, s.CPUS) }))
		rep.add("peak_rss_mb", "MB", median(plain, func(s sample) float64 { return float64(s.PeakRSSKB) / 1024 }))
		return rep
	}

	cpu := map[string]int64{}
	var total int64
	for _, s := range tr {
		for g, n := range s.Profile { //lint:ordered integer sums commute
			cpu[g] += n
			total += n
		}
	}
	for _, l := range layerShares {
		rep.add(l.metric, "ratio", ratio(uint64(cpu[l.group]), uint64(total)))
	}
	rep.add("profile.samples", "count", float64(total))

	runS := median(plain, func(s sample) float64 { return norm(s, s.RunS) })
	rep.add("span.construct_s", "s", median(tr, func(s sample) float64 { return norm(s, s.ConstructS) }))
	rep.add("span.attach_s", "s", median(tr, func(s sample) float64 { return norm(s, s.AttachS) }))
	rep.add("span.spawn_s", "s", median(tr, func(s sample) float64 { return norm(s, s.SpawnS) }))
	rep.add("span.run_s", "s", median(tr, func(s sample) float64 { return norm(s, s.RunS) }))
	rep.add("span.finish_s", "s", median(tr, func(s sample) float64 { return norm(s, s.FinishS) }))
	rep.add("trace.overhead_frac", "ratio", median(tr, func(s sample) float64 { return norm(s, s.RunS) })/runS-1)
	rep.add("host.calib_s", "s", median(samples, func(s sample) float64 { return s.CalibS }))
	rep.add("host.setup_s", "s", median(plain, func(s sample) float64 { return s.SetupS }))
	rep.add("host.run_s", "s", median(plain, func(s sample) float64 { return s.RunS }))
	rep.add("host.cpu_s", "s", median(plain, func(s sample) float64 { return s.CPUS }))

	ev := float64(first.Events)
	rep.add("sim.events", "count", ev)
	rep.add("sim.ns_per_event", "ns/event", runS*1e9/ev)
	rep.add("sim.end_ns", "ns", float64(first.EndNs))
	rep.add("sim.goroutines_after", "count", median(plain, func(s sample) float64 { return float64(s.Goroutines) }))
	rep.add("runtime.alloc_mb", "MB", median(plain, func(s sample) float64 { return float64(s.AllocBytes) / mb }))
	rep.add("runtime.allocs_per_event", "allocs/event", median(plain, func(s sample) float64 { return float64(s.Mallocs) })/ev)
	rep.add("cluster.heap_idle_mb", "MB", median(tr, func(s sample) float64 { return float64(s.HeapIdle) / mb }))

	c := first.Counters
	rep.add("bus.transactions", "count", float64(c.BusTransactions))
	rep.add("bus.retry_frac", "ratio", ratio(c.BusRetries, c.BusTransactions))
	rep.add("cache.miss_frac", "ratio", ratio(c.CacheMisses, c.CacheHits+c.CacheMisses))
	rep.add("niu.rx_messages", "count", float64(c.RxMessages))
	rep.add("niu.rx_holds", "count", float64(c.RxHolds))
	rep.add("firmware.messages", "count", float64(c.FWMessages))
	rep.add("firmware.sp_busy_frac", "ratio", ratio(c.SPBusyNs, uint64(c.Nodes)*uint64(first.EndNs)))
	rep.add("firmware.retransmit_frac", "ratio", ratio(c.RelRetransmits, c.RelSends))
	rep.add("arctic.delivered", "count", float64(c.Delivered))
	rep.add("arctic.credit_stalls", "count", float64(c.CreditStalls))
	rep.add("arctic.stalled_ns", "ns", float64(c.StalledNs))
	rep.add("fault.drops", "count", float64(c.FaultDrops))
	return rep
}
