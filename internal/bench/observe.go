package bench

import (
	"startvoyager/internal/blockxfer"
	"startvoyager/internal/cluster"
	"startvoyager/internal/core"
	"startvoyager/internal/prof"
	"startvoyager/internal/sim"
	"startvoyager/internal/stats"
	"startvoyager/internal/trace"
)

// Observed bundles the artifacts of one instrumented run.
type Observed struct {
	Machine *core.Machine
	// Trace is the trace ring, nil when the run was launched without one.
	Trace   *trace.Buffer
	Metrics *stats.Registry
	SimTime sim.Time
	// Series is the windowed telemetry sampler, non-nil when the run was
	// launched with a sampler config; Finish has already been called, so it
	// is ready to export.
	Series *stats.Sampler
}

// Observe builds a machine from cfg with the requested instruments
// attached, hands it to run to spawn its procs and run it to completion,
// and finishes the instruments at the end time. The profiler (nil: none)
// goes in through cfg.Profiler so firmware loops spawned during
// construction are accounted from time zero; then the trace ring
// (capacity 0: none) and the sampler (nil scfg: none) attach, in that
// order so the sampler scrapes the ring's trace/ metrics. No instrument
// can change the run's simulated outcome (test-enforced).
func Observe(cfg cluster.Config, capacity int, scfg *stats.SamplerConfig, profiler *prof.Profiler, run func(*core.Machine)) Observed {
	if profiler != nil {
		cfg.Profiler = profiler
	}
	m := core.NewMachineConfig(cfg)
	obs := Observed{Machine: m, Metrics: m.Metrics()}
	if capacity > 0 {
		obs.Trace = m.Trace(capacity)
	}
	if scfg != nil {
		obs.Series = m.Series(*scfg)
	}
	run(m)
	obs.SimTime = m.Eng.Now()
	if obs.Series != nil {
		obs.Series.Finish()
	}
	if profiler != nil {
		profiler.Finish(obs.SimTime)
	}
	return obs
}

// ObservedRun executes the canonical observability workload under Observe:
// a four-node machine exercising every major mechanism at once — a
// hardware block transfer (approach 3) between nodes 0 and 1, and
// Basic/Express/DMA message traffic plus cached and S-COMA memory
// operations between nodes 2 and 3 — with a trace ring of the given
// capacity attached from the start. Every model package emits at least one
// span, instant, counter, or metric during this run; the coverage test in
// observe_test.go holds the layer to that.
func ObservedRun(capacity int, scfg *stats.SamplerConfig, profiler *prof.Profiler) Observed {
	return Observe(cluster.DefaultConfig(4), capacity, scfg, profiler, canonicalRun)
}

func canonicalRun(m *core.Machine) {
	xfer := blockxfer.NewTransfer(blockxfer.A3, m, 4<<10)
	m.Go(0, "xfer-src", func(p *sim.Proc, api *core.API) {
		xfer.Send(p, api)
	})
	m.Go(1, "xfer-dst", func(p *sim.Proc, api *core.API) {
		xfer.Receive(p, api)
		xfer.Consume(p, api)
	})

	const msgs = 8
	m.Go(2, "mixed-src", func(p *sim.Proc, api *core.API) {
		payload := make([]byte, 32)
		for k := 0; k < msgs; k++ {
			api.SendBasic(p, 3, payload)
		}
		api.SendExpress(p, 3, []byte{1, 2})
		api.DmaPush(p, 3, 0x10_0000, 0x20_0000, 256, 7)
		var line [64]byte
		api.MemStore(p, 0x30_0000, line[:])
		api.MemLoad(p, 0x30_0000, line[:])
		api.ScomaLoad(p, 0, line[:32]) // remote page: capture + directory firmware
	})
	m.Go(3, "mixed-dst", func(p *sim.Proc, api *core.API) {
		for got := 0; got < msgs; {
			if _, _, ok := api.TryRecvBasic(p); ok {
				got++
			}
		}
		api.RecvExpress(p)
		api.RecvNotify(p)
	})
	m.Run()
}
