package bench

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"

	"startvoyager/internal/core"
	"startvoyager/internal/sim"
	"startvoyager/internal/trace"
)

// Headline latency probe: one small fixed workload per MP mechanism, traced,
// with the mean delivered end-to-end latency extracted from the causal path
// analysis. The engine is deterministic, so these numbers are bit-stable for
// a given code state — CI diffs them against the committed BENCH_baseline.json
// with a 10% tolerance to catch accidental performance regressions.

// PathMechs lists the MP mechanisms covered by the probe.
var PathMechs = []string{"basic", "express", "tagon", "dma", "reliable"}

// headlineMsgs is the per-mechanism message count of the probe workload.
const headlineMsgs = 8

// RunMechTraced executes the fixed two-node workload of one MP mechanism
// with a trace buffer attached and returns the buffer. Panics on an unknown
// mechanism or a failed reliable send (the probe runs fault-free).
func RunMechTraced(mech string) *trace.Buffer {
	m := core.NewMachine(2)
	tbuf := m.Trace(1 << 18)
	m.Go(0, "sink", func(p *sim.Proc, a *core.API) {
		for got := 0; got < headlineMsgs; {
			switch mech {
			case "basic", "tagon":
				if _, _, ok := a.TryRecvBasic(p); ok {
					got++
				}
			case "express":
				if _, _, ok := a.TryRecvExpress(p); ok {
					got++
				}
			case "dma":
				a.RecvNotify(p)
				got++
			case "reliable":
				a.RecvReliable(p)
				got++
			}
		}
	})
	m.Go(1, "src", func(p *sim.Proc, a *core.API) {
		for k := 0; k < headlineMsgs; k++ {
			switch mech {
			case "basic":
				a.SendBasic(p, 0, []byte{byte(k), 1, 2, 3})
			case "tagon":
				a.MemStore(p, 0x10_0000, make([]byte, 64))
				a.SendTagOn(p, 0, []byte{byte(k)}, 0x400, 16)
			case "express":
				a.SendExpress(p, 0, []byte{byte(k)})
				a.Compute(p, 2*sim.Microsecond) // pace: express drops on overflow
			case "dma":
				a.DmaPush(p, 0, 0x10_0000, 0x20_0000, 128, uint32(k))
			case "reliable":
				if err := a.SendReliable(p, 0, []byte{byte(k)}); err != nil {
					panic(fmt.Sprintf("bench: headline reliable send: %v", err))
				}
			default:
				panic(fmt.Sprintf("bench: unknown mechanism %q", mech))
			}
		}
	})
	m.Run()
	if d := tbuf.Stats().Dropped; d != 0 {
		panic(fmt.Sprintf("bench: headline trace ring dropped %d events", d))
	}
	return tbuf
}

// HeadlineLatencies runs the probe for every mechanism and returns the
// headline numbers: mean delivered end-to-end latency and total
// retransmit-penalty per mechanism, in nanoseconds. Per-mechanism cells
// are independent machines, so they fan across up to workers goroutines;
// the returned map is identical at any worker count.
func HeadlineLatencies(workers int) map[string]int64 {
	means := Cells(len(PathMechs), workers, func(i int) int64 {
		mech := PathMechs[i]
		a := trace.AnalyzePaths(RunMechTraced(mech).Events())
		var sum sim.Time
		n := 0
		for _, m := range a.Msgs {
			if m.Outcome == trace.Delivered {
				sum += m.Total()
				n++
			}
		}
		if n == 0 {
			panic(fmt.Sprintf("bench: headline %s delivered nothing", mech))
		}
		return int64(sum) / int64(n)
	})
	out := make(map[string]int64, len(PathMechs))
	for i, mech := range PathMechs {
		out[mech+"_e2e_mean_ns"] = means[i]
	}
	return out
}

// headlineDoc is the on-disk shape of BENCH_baseline.json: the deterministic
// headline latencies, keyed "<mechanism>_e2e_mean_ns".
type headlineDoc struct {
	Schema    string           `json:"schema"`
	Latencies map[string]int64 `json:"latencies"`
}

// WriteHeadline renders latencies as the BENCH_baseline.json document.
func WriteHeadline(w io.Writer, latencies map[string]int64) error {
	out, err := json.MarshalIndent(headlineDoc{
		Schema: "voyager-headline/v1", Latencies: latencies,
	}, "", "  ")
	if err != nil {
		return err
	}
	_, err = w.Write(append(out, '\n'))
	return err
}

// DiffHeadline compares freshly computed headline latencies against the
// committed baseline document and reports every entry to w. Returns false —
// the CI failure signal — when the baseline is unreadable, a baseline entry
// is missing, or any latency exceeds its baseline by more than 10%.
func DiffHeadline(baseline []byte, latencies map[string]int64, w io.Writer) bool {
	var base headlineDoc
	if err := json.Unmarshal(baseline, &base); err != nil {
		fmt.Fprintf(w, "bench-diff: bad baseline: %v\n", err)
		return false
	}
	ok := true
	for _, k := range sortedKeys(base.Latencies) {
		was := base.Latencies[k]
		now, found := latencies[k]
		if !found {
			fmt.Fprintf(w, "bench-diff: %-24s MISSING (baseline %dns)\n", k, was)
			ok = false
			continue
		}
		pct := 100 * float64(now-was) / float64(was)
		verdict := "ok"
		if now > was+was/10 {
			verdict = "REGRESSED"
			ok = false
		}
		fmt.Fprintf(w, "bench-diff: %-24s %8dns -> %8dns (%+.1f%%) %s\n", k, was, now, pct, verdict)
	}
	for _, k := range sortedKeys(latencies) {
		if _, found := base.Latencies[k]; !found {
			fmt.Fprintf(w, "bench-diff: %-24s %8dns (new; not in baseline — refresh with make bench-baseline)\n", k, latencies[k])
		}
	}
	if !ok {
		fmt.Fprintln(w, "bench-diff: FAIL — headline latency regressed >10% (refresh BENCH_baseline.json via make bench-baseline if intentional)")
	}
	return ok
}

func sortedKeys(m map[string]int64) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
