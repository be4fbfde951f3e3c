package main

import (
	"bytes"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/pprof"
	"strconv"
	"strings"
	"syscall"
	"time"

	"startvoyager/internal/arctic"
	"startvoyager/internal/core"
	"startvoyager/internal/sim"
)

// sample is what one child process measured on its one machine. The parent
// adds CalibS from its own calibration kernel.
type sample struct {
	Traced    bool
	Attempted int
	Failed    int
	Stall     string // the watchdog's verdict when the run did not drain cleanly

	SetupS, RunS, CPUS float64
	// Benchmark-side spans around the calls into each layer.
	ConstructS, AttachS, SpawnS, FinishS float64

	Events     uint64
	EndNs      int64
	Goroutines int // runtime.NumGoroutine once the engine drained
	AllocBytes uint64
	Mallocs    uint64
	HeapIdle   uint64 // live heap the constructed machine retains (traced only)

	Counters counters
	Profile  map[string]int64 // CPU samples per layer (traced only)

	PeakRSSKB int64   // VmHWM of the child, read once the machine finished
	CalibS    float64 // the calibration kernel's time just before the child
}

// counters are simulated work summed over the machine. They are
// deterministic: a host-only change must leave every one identical.
type counters struct {
	BusTransactions, BusRetries uint64
	CacheHits, CacheMisses      uint64
	RxMessages, RxHolds         uint64
	FWMessages, SPBusyNs        uint64
	RelSends, RelRetransmits    uint64
	Delivered                   uint64
	CreditStalls, StalledNs     uint64
	FaultDrops                  uint64
	Nodes                       int
}

func machineCounters(m *core.Machine) counters {
	reg := m.Metrics()
	gauge := func(path string) uint64 {
		v, ok := reg.ReadGauge(path)
		if !ok {
			panic("hostbench: no gauge " + path)
		}
		return uint64(v)
	}
	c := counters{Nodes: len(m.Nodes)}
	for i, n := range m.Nodes {
		pre := fmt.Sprintf("node%d/", i)
		c.BusTransactions += gauge(pre + "bus/transactions")
		c.BusRetries += gauge(pre + "bus/retries")
		c.CacheHits += gauge(pre + "cache/hits")
		c.CacheMisses += gauge(pre + "cache/misses")
		c.RxMessages += gauge(pre + "ctrl/rx_messages")
		c.RxHolds += gauge(pre + "ctrl/rx_holds")
		c.FWMessages += gauge(pre + "fw/messages")
		c.SPBusyNs += uint64(n.FW.BusyTime())
	}
	for _, rel := range m.Rels {
		st := rel.Stats()
		c.RelSends += st.Sends
		c.RelRetransmits += st.Retransmits
	}
	if m.Faults != nil {
		st := m.Faults.Stats()
		c.FaultDrops = st.InjectedDrops + st.OutageDrops + st.DeathDrops
	}
	if ft, ok := m.Fabric.(*arctic.FatTree); ok {
		f := fabricCounters(ft)
		c.Delivered, c.CreditStalls, c.StalledNs = f.Delivered, f.CreditStalls, f.StalledNs
	}
	return c
}

func fabricCounters(f *arctic.FatTree) counters {
	c := counters{Delivered: f.Stats().Delivered}
	for _, l := range f.StallsByLevel() {
		c.CreditStalls += l.Stalls
		c.StalledNs += l.StalledNs
	}
	return c
}

// drive runs eng until its queue drains or budget of simulated time has
// passed, then classifies the end as RunBudget does. It advances in slices
// so that an instrument scraping on window boundaries stops within one
// slice of the drain instead of scraping empty windows up to the budget.
func drive(eng *sim.Engine, budget sim.Time, live int) *sim.StallError {
	const slice = 100 * sim.Microsecond
	end := eng.Now() + budget
	for eng.Pending() > 0 && eng.Now() < end {
		eng.RunUntil(min(eng.Now()+slice, end))
	}
	return eng.BudgetCheck(budget, live)
}

// wallClock reads the host clock; only the harness's own spans use it.
func wallClock() time.Time {
	//lint:allow nowalltime host-cost measurement, never feeds simulated state
	return time.Now()
}

func seconds(from, to time.Time) float64 { return to.Sub(from).Seconds() }

// cpuSeconds is the process's user+sys CPU time over all its threads.
func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		panic(err)
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano()).Seconds()
}

// cpuProfile records one segment of the traced run's CPU profile.
type cpuProfile struct {
	buf bytes.Buffer
}

func (c *cpuProfile) start() {
	if err := pprof.StartCPUProfile(&c.buf); err != nil {
		panic(err)
	}
}

// stop ends the segment and adds its samples, grouped by layer, to into.
func (c *cpuProfile) stop(into map[string]int64) {
	pprof.StopCPUProfile()
	if err := attribute(c.buf.Bytes(), into); err != nil {
		panic(err)
	}
	c.buf.Reset()
}

// measureOne builds, runs and checks one machine of workload w. A traced
// run also records a CPU profile of set-up and run, split in two segments
// around a forced GC that measures the heap the constructed machine
// retains; the GC lies outside every span and outside the profile.
func measureOne(w *workload, seed uint64, traced bool) sample {
	s := sample{Traced: traced}
	inst := w.new(seed)
	var cp cpuProfile
	if traced {
		s.Profile = map[string]int64{}
	}
	runtime.GC()
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	if traced {
		cp.start()
	}
	cpu0 := cpuSeconds()
	t0 := wallClock()
	inst.construct()
	t1 := wallClock()
	if traced {
		cp.stop(s.Profile)
		runtime.GC()
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		s.HeapIdle = ms.HeapAlloc - min(ms.HeapAlloc, ms0.HeapAlloc)
		cp.start()
	}
	t2 := wallClock()
	inst.attach()
	t3 := wallClock()
	inst.spawn()
	t4 := wallClock()
	stall := drive(inst.engine(), w.budget, inst.live())
	t5 := wallClock()
	s.CPUS = cpuSeconds() - cpu0
	s.Goroutines = runtime.NumGoroutine()
	runtime.ReadMemStats(&ms1)
	if traced {
		cp.stop(s.Profile)
	}
	t6 := wallClock()
	if err := inst.finish(io.Discard); err != nil {
		panic(err)
	}
	t7 := wallClock()

	s.ConstructS, s.AttachS, s.SpawnS = seconds(t0, t1), seconds(t2, t3), seconds(t3, t4)
	s.SetupS = s.ConstructS + s.AttachS + s.SpawnS
	s.RunS, s.FinishS = seconds(t4, t5), seconds(t6, t7)
	s.Events = inst.engine().Executed()
	s.EndNs = int64(inst.end())
	s.AllocBytes = ms1.TotalAlloc - ms0.TotalAlloc
	s.Mallocs = ms1.Mallocs - ms0.Mallocs
	s.Attempted, s.Failed = inst.check()
	if stall != nil {
		s.Stall = stall.Error()
		fmt.Fprintf(os.Stderr, "hostbench: %s seed %d: %v\n", w.name, seed, stall)
	}
	s.Counters = inst.counters()
	s.PeakRSSKB = peakRSSKB()
	return s
}

// peakRSSKB returns the process's peak resident set (VmHWM). The child's
// getrusage maxrss would not do: exec records the RSS of the memory image
// it replaces, which the child shared with its parent, so maxrss would be
// at least the parent's RSS, calibration table included.
func peakRSSKB() int64 {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		panic(err)
	}
	for _, line := range strings.Split(string(b), "\n") {
		if v, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseInt(strings.TrimSpace(strings.TrimSuffix(v, "kB")), 10, 64)
			if err != nil {
				panic(err)
			}
			return kb
		}
	}
	panic("hostbench: no VmHWM in /proc/self/status")
}
