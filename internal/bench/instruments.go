package bench

import (
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"runtime/pprof"
	"time"

	"startvoyager/internal/prof"
	"startvoyager/internal/sim"
	"startvoyager/internal/stats"
)

// Instruments is the instrument flag group of the run drivers (voyager-run,
// voyager-bench): the trace, metrics, series and simulated-time profile
// artifacts of one observed run, plus host pprof capture of the process.
// It is the one place a CLI gets instruments, so a new instrument is wired
// once. Use: NewInstruments before flag parsing, Start after it, Observe or
// ObservedRun with TraceCap, SamplerConfig and Profiler, then Write, and
// Stop before exit.
type Instruments struct {
	TraceFile, MetricsFile, SeriesFile string
	ProfFile, ProfFolded, ProfPprof    string
	CPUProfile, MemProfile             string
	SeriesWindow                       string
	TraceCap                           int
	StrictTrace                        bool

	// Set by Start.
	SamplerConfig *stats.SamplerConfig // nil without -series
	Profiler      *prof.Profiler       // nil without a -prof* output
	cpuFile       *os.File
}

// NewInstruments registers the group's flags on fs.
func NewInstruments(fs *flag.FlagSet) *Instruments {
	in := &Instruments{}
	fs.StringVar(&in.TraceFile, "trace", "", "write a Perfetto/Chrome trace-event JSON file of the run")
	fs.IntVar(&in.TraceCap, "trace-cap", 1<<18, "trace ring capacity (oldest events drop beyond this)")
	fs.BoolVar(&in.StrictTrace, "strict-trace", false, "exit nonzero if the trace ring dropped events (implies tracing)")
	fs.StringVar(&in.MetricsFile, "metrics", "", "write the run's metrics registry as JSON")
	fs.StringVar(&in.SeriesFile, "series", "", "write the run's windowed time-series telemetry (voyager-series/v1, render with voyager-stats)")
	fs.StringVar(&in.SeriesWindow, "series-window", "20us", "simulated-time window width for -series (Go duration)")
	fs.StringVar(&in.ProfFile, "prof", "", "write the run's simulated-time profile (voyager-prof/v1 JSON, render with voyager-prof)")
	fs.StringVar(&in.ProfFolded, "prof-folded", "", "write the run's simulated-time profile as folded flame-graph stacks")
	fs.StringVar(&in.ProfPprof, "prof-pprof", "", "write the run's simulated-time profile as pprof protobuf (open with go tool pprof)")
	fs.StringVar(&in.CPUProfile, "cpuprofile", "", "write a CPU profile of the simulator process")
	fs.StringVar(&in.MemProfile, "memprofile", "", "write an allocation profile of the simulator process on exit")
	return in
}

// Tracing reports whether a trace ring is needed for the group's outputs.
func (in *Instruments) Tracing() bool { return in.TraceFile != "" || in.StrictTrace }

func (in *Instruments) profiling() bool {
	return in.ProfFile != "" || in.ProfFolded != "" || in.ProfPprof != ""
}

// Requested reports whether any run artifact was asked for.
func (in *Instruments) Requested() bool {
	return in.Tracing() || in.MetricsFile != "" || in.SeriesFile != "" || in.profiling()
}

// Start validates -series-window, creates the profiler, and begins host
// CPU profiling.
func (in *Instruments) Start() error {
	if in.SeriesFile != "" {
		w, err := time.ParseDuration(in.SeriesWindow)
		if err != nil || w <= 0 {
			return fmt.Errorf("-series-window: invalid duration %q", in.SeriesWindow)
		}
		in.SamplerConfig = &stats.SamplerConfig{Window: sim.Time(w.Nanoseconds())}
	}
	if in.profiling() {
		in.Profiler = prof.New()
	}
	if in.CPUProfile != "" {
		f, err := os.Create(in.CPUProfile)
		if err != nil {
			return fmt.Errorf("-cpuprofile: %w", err)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			f.Close()
			return fmt.Errorf("-cpuprofile: %w", err)
		}
		in.cpuFile = f
	}
	return nil
}

// Stop flushes the host profiles; it must run once before every exit
// path (os.Exit skips deferred calls) for them to be valid.
func (in *Instruments) Stop() error {
	if in.cpuFile != nil {
		pprof.StopCPUProfile()
		if err := in.cpuFile.Close(); err != nil {
			return fmt.Errorf("-cpuprofile: %w", err)
		}
	}
	if in.MemProfile != "" {
		runtime.GC() // materialize the final live-heap picture
		err := WriteFile(in.MemProfile, func(w io.Writer) error {
			return pprof.Lookup("allocs").WriteTo(w, 0)
		})
		if err != nil {
			return fmt.Errorf("-memprofile: %w", err)
		}
	}
	return nil
}

// Write exports every requested artifact of obs, each stamped with meta
// and obs's end time, and prints a one-line confirmation per file. A trace
// ring that dropped events draws a warning on stderr, and an error under
// -strict-trace once everything is written.
func (in *Instruments) Write(obs Observed, meta stats.RunMeta) error {
	meta.SimTimeNs = int64(obs.SimTime)
	if in.TraceFile != "" {
		if err := WriteFile(in.TraceFile, obs.Trace.WritePerfetto); err != nil {
			return err
		}
		ts := obs.Trace.Stats()
		fmt.Printf("trace: %s (%d events captured, %d retained)\n", in.TraceFile, ts.Captured, ts.Retained)
	}
	if in.MetricsFile != "" {
		err := WriteFile(in.MetricsFile, func(w io.Writer) error {
			return obs.Metrics.WriteJSONMeta(w, obs.SimTime, &meta)
		})
		if err != nil {
			return err
		}
		fmt.Printf("metrics: %s\n", in.MetricsFile)
	}
	if in.SeriesFile != "" {
		err := WriteFile(in.SeriesFile, func(w io.Writer) error { return obs.Series.WriteJSON(w, &meta) })
		if err != nil {
			return err
		}
		fmt.Printf("series: %s (%d windows of %v, render with voyager-stats)\n",
			in.SeriesFile, obs.Series.Windows(), in.SamplerConfig.Window)
	}
	if in.Profiler != nil {
		// All three formats derive from one document, so their totals agree.
		doc := in.Profiler.Doc(&meta)
		for _, out := range []struct {
			flag, path, hint string
			write            func(io.Writer) error
		}{
			{"prof", in.ProfFile, "render with voyager-prof", doc.WriteJSON},
			{"prof-folded", in.ProfFolded, "flamegraph.pl / speedscope", doc.WriteFolded},
			{"prof-pprof", in.ProfPprof, "go tool pprof", doc.WritePprof},
		} {
			if out.path == "" {
				continue
			}
			if err := WriteFile(out.path, out.write); err != nil {
				return err
			}
			fmt.Printf("%s: %s (%s)\n", out.flag, out.path, out.hint)
		}
	}
	if obs.Trace != nil {
		if d := obs.Trace.Stats().Dropped; d > 0 {
			fmt.Fprintf(os.Stderr, "WARNING: trace ring dropped %d events; the trace is truncated (raise -trace-cap)\n", d)
			if in.StrictTrace {
				return fmt.Errorf("strict-trace: ring dropped %d events", d)
			}
		}
	}
	return nil
}

// WriteFile creates path, fills it with write, and closes it, returning
// the first error.
func WriteFile(path string, write func(io.Writer) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := write(f); err != nil {
		f.Close()
		return fmt.Errorf("%s: %w", path, err)
	}
	return f.Close()
}
