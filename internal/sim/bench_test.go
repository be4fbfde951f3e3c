package sim_test

import (
	"testing"

	"startvoyager/internal/sim"
)

// Microbenchmarks for the kernel hot paths (run with `go test -bench . ./internal/sim/`)
// plus AllocsPerRun regression tests pinning the fast-path guarantees: the
// pooled event queue makes steady-state Schedule/Step allocation-free, and
// the prebound completion callback makes an immediately-completing Proc.Call
// allocation-free.

// fan seeds n self-rescheduling event chains so the heap holds a realistic
// pending population; deltas follow a fixed multiplicative walk.
func fan(e *sim.Engine, n int) {
	for j := 0; j < n; j++ {
		k := uint64(j)
		var fn func()
		fn = func() {
			k += 2654435761
			e.Schedule(sim.Time(k%4096)*sim.Nanosecond, fn)
		}
		e.Schedule(sim.Time(j)*sim.Nanosecond, fn)
	}
}

// mixed seeds n self-rescheduling chains whose delays follow the machine
// model's measured traffic: 25% zero (same-instant handoffs), 45% 1-15 ns
// (bus beats, I-Bus transfers) and 30% 16-63 ns (link flits, cache fills).
func mixed(e *sim.Engine, n int) {
	for j := 0; j < n; j++ {
		k := uint64(j)
		var fn func()
		fn = func() {
			k += 2654435761
			var d sim.Time
			switch r := k % 100; {
			case r < 25:
			case r < 70:
				d = sim.Time(1 + (k>>8)%15)
			default:
				d = sim.Time(16 + (k>>8)%48)
			}
			e.Schedule(d*sim.Nanosecond, fn)
		}
		e.Schedule(sim.Time(j)*sim.Nanosecond, fn)
	}
}

// far pre-schedules n events spread over n*8 ns, each re-arming itself one
// spread later, so the queue stays n deep far beyond the near-future traffic,
// like the hotspot run's pre-scheduled injections.
func far(e *sim.Engine, n int) {
	spread := sim.Time(n) * 8 * sim.Nanosecond
	for j := 0; j < n; j++ {
		var fn func()
		fn = func() { e.Schedule(spread, fn) }
		e.Schedule(spread+sim.Time(j)*8*sim.Nanosecond, fn)
	}
}

func benchSteps(b *testing.B, e *sim.Engine) {
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.Step()
	}
}

// BenchmarkScheduleStep: 256 chains with uniform 0-4095 ns delays, so about
// three quarters of the events land past the timing wheel's horizon.
func BenchmarkScheduleStep(b *testing.B) {
	e := sim.NewEngine()
	fan(e, 256)
	benchSteps(b, e)
}

// BenchmarkScheduleStepMixed: 100 chains shaped like the measured traffic,
// all of it within the wheel's horizon.
func BenchmarkScheduleStepMixed(b *testing.B) {
	e := sim.NewEngine()
	mixed(e, 100)
	benchSteps(b, e)
}

// BenchmarkScheduleStepDeep: the mixed chains on top of 128k far events.
func BenchmarkScheduleStepDeep(b *testing.B) {
	e := sim.NewEngine()
	far(e, 128<<10)
	mixed(e, 100)
	benchSteps(b, e)
}

func BenchmarkProcDelay(b *testing.B) {
	e := sim.NewEngine()
	n := b.N
	e.Spawn("p", func(p *sim.Proc) {
		for i := 0; i < n; i++ {
			p.Delay(10 * sim.Nanosecond)
		}
	})
	b.ReportAllocs()
	b.ResetTimer()
	e.Run()
}

func BenchmarkProcCallImmediate(b *testing.B) {
	e := sim.NewEngine()
	n := b.N
	immediate := func(done func()) { done() }
	e.Spawn("p", func(p *sim.Proc) {
		for i := 0; i < n; i++ {
			p.Call(immediate)
		}
	})
	b.ReportAllocs()
	b.ResetTimer()
	e.Run()
}

func BenchmarkQueuePushPop(b *testing.B) {
	e := sim.NewEngine()
	q := sim.NewQueue[int](e)
	n := b.N
	e.Spawn("consumer", func(p *sim.Proc) {
		for i := 0; i < n; i++ {
			q.Pop(p)
		}
	})
	e.Spawn("producer", func(p *sim.Proc) {
		for i := 0; i < n; i++ {
			q.Push(i)
			p.Delay(10 * sim.Nanosecond)
		}
	})
	b.ReportAllocs()
	b.ResetTimer()
	e.Run()
}

// TestScheduleStepZeroAllocs: once the wheel's node pool and the far heap's
// backing array have grown to the working-set size, Schedule+Step cycles must
// not allocate at all — for mostly-far traffic and for a near+far mix.
func TestScheduleStepZeroAllocs(t *testing.T) {
	for _, c := range []struct {
		name string
		seed func(*sim.Engine)
	}{
		{"uniform", func(e *sim.Engine) { fan(e, 64) }},
		{"near+far", func(e *sim.Engine) { far(e, 256); mixed(e, 64) }},
	} {
		e := sim.NewEngine()
		c.seed(e)
		for i := 0; i < 4096; i++ { // settle pool and heap capacity
			e.Step()
		}
		allocs := testing.AllocsPerRun(1000, func() { e.Step() })
		if allocs != 0 {
			t.Fatalf("%s: steady-state Schedule/Step allocates %v per op, want 0", c.name, allocs)
		}
	}
}

// TestResourceContendedZeroAllocs: a warm batch of Uses contending for one
// resource queues and grants its waiters without allocating — the wait
// queue is popped in place, so its backing array is reused.
func TestResourceContendedZeroAllocs(t *testing.T) {
	e := sim.NewEngine()
	r := sim.NewResource(e, "bus")
	batch := func() {
		for i := 0; i < 4; i++ {
			r.Use(10*sim.Nanosecond, nil)
		}
		e.Run()
	}
	batch() // warm the useReq pool, the wait queue and the event queue
	if allocs := testing.AllocsPerRun(100, batch); allocs != 0 {
		t.Fatalf("warm contended Use batch allocates %v, want 0", allocs)
	}
}

// TestCallImmediateZeroAllocs: the immediate-completion Call path must not
// allocate — the completion callback is prebound at Spawn, not a per-Call
// closure.
func TestCallImmediateZeroAllocs(t *testing.T) {
	e := sim.NewEngine()
	immediate := func(done func()) { done() }
	var allocs float64
	e.Spawn("p", func(p *sim.Proc) {
		for i := 0; i < 8; i++ { // warm up
			p.Call(immediate)
		}
		allocs = testing.AllocsPerRun(1000, func() { p.Call(immediate) })
	})
	e.Run()
	if allocs != 0 {
		t.Fatalf("immediate-completion Call allocates %v per op, want 0", allocs)
	}
}

// TestQueueSteadyStateZeroAllocs: once the ring buffer has grown to the
// working-set size, a push/pop cycle must not allocate.
func TestQueueSteadyStateZeroAllocs(t *testing.T) {
	e := sim.NewEngine()
	q := sim.NewQueue[int](e)
	var allocs float64
	e.Spawn("consumer", func(p *sim.Proc) {
		for i := 0; i < 8; i++ { // warm up free list and ring
			q.Pop(p)
		}
		allocs = testing.AllocsPerRun(500, func() {
			q.Push(1)
			q.Pop(p)
		})
	})
	e.Spawn("producer", func(p *sim.Proc) {
		for i := 0; i < 8; i++ {
			q.Push(i)
			p.Delay(10 * sim.Nanosecond)
		}
	})
	e.Run()
	if allocs != 0 {
		t.Fatalf("steady-state Queue push/pop allocates %v per op, want 0", allocs)
	}
}
