package bench

import (
	"bytes"
	"flag"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"startvoyager/internal/stats"
)

// parseInstruments registers the group on a fresh flag set, parses args,
// and starts it.
func parseInstruments(t *testing.T, args ...string) (*Instruments, error) {
	t.Helper()
	fs := flag.NewFlagSet("test", flag.ContinueOnError)
	in := NewInstruments(fs)
	if err := fs.Parse(args); err != nil {
		t.Fatalf("Parse(%q): %v", args, err)
	}
	return in, in.Start()
}

// TestInstrumentsWriteMatchesWriters: every artifact the group writes is
// byte-for-byte what the trace, metrics, series and profile writers
// produce for the same run.
func TestInstrumentsWriteMatchesWriters(t *testing.T) {
	dir := t.TempDir()
	path := func(name string) string { return filepath.Join(dir, name) }
	in, err := parseInstruments(t,
		"-trace", path("trace.json"), "-metrics", path("metrics.json"),
		"-series", path("series.json"), "-series-window", "10us",
		"-prof", path("prof.json"), "-prof-folded", path("prof.folded"),
		"-prof-pprof", path("prof.pb"), "-memprofile", path("mem.pb"))
	if err != nil {
		t.Fatalf("Start: %v", err)
	}
	if !in.Requested() || in.SamplerConfig == nil || in.Profiler == nil {
		t.Fatalf("flags did not select every instrument: %+v", in)
	}
	obs := ObservedRun(in.TraceCap, in.SamplerConfig, in.Profiler)
	meta := stats.RunMeta{Tool: "test", Mechanism: "mixed", Nodes: 4}
	if err := in.Write(obs, meta); err != nil {
		t.Fatalf("Write: %v", err)
	}
	if err := in.Stop(); err != nil {
		t.Fatalf("Stop: %v", err)
	}

	meta.SimTimeNs = int64(obs.SimTime)
	doc := in.Profiler.Doc(&meta)
	for name, write := range map[string]func(io.Writer) error{
		"trace.json": obs.Trace.WritePerfetto,
		"metrics.json": func(w io.Writer) error {
			return obs.Metrics.WriteJSONMeta(w, obs.SimTime, &meta)
		},
		"series.json": func(w io.Writer) error { return obs.Series.WriteJSON(w, &meta) },
		"prof.json":   doc.WriteJSON,
		"prof.folded": doc.WriteFolded,
		"prof.pb":     doc.WritePprof,
	} {
		var want bytes.Buffer
		if err := write(&want); err != nil {
			t.Fatalf("%s writer: %v", name, err)
		}
		got, err := os.ReadFile(path(name))
		if err != nil {
			t.Fatal(err)
		}
		if want.Len() == 0 || !bytes.Equal(got, want.Bytes()) {
			t.Errorf("%s: %d bytes written, writer gives %d", name, len(got), want.Len())
		}
	}
	if st, err := os.Stat(path("mem.pb")); err != nil || st.Size() == 0 {
		t.Errorf("-memprofile left no profile: %v", err)
	}
}

func TestInstrumentsBadSeriesWindow(t *testing.T) {
	for _, w := range []string{"bogus", "0s", "-5us"} {
		if _, err := parseInstruments(t, "-series", "x.json", "-series-window", w); err == nil {
			t.Errorf("-series-window %q: no error", w)
		}
	}
}

// TestInstrumentsStrictTrace: a truncated trace under -strict-trace is an
// error returned to the caller, not a process exit.
func TestInstrumentsStrictTrace(t *testing.T) {
	in, err := parseInstruments(t, "-strict-trace", "-trace-cap", "16")
	if err != nil {
		t.Fatalf("Start: %v", err)
	}
	if !in.Tracing() {
		t.Fatal("-strict-trace did not turn tracing on")
	}
	err = in.Write(ObservedRun(in.TraceCap, nil, nil), stats.RunMeta{Tool: "test"})
	if err == nil || !strings.Contains(err.Error(), "dropped") {
		t.Errorf("Write = %v, want a dropped-events error", err)
	}
}
