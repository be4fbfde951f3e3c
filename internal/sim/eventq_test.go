package sim

import (
	"math/rand"
	"testing"
)

// The differential test below drives the engine and a reference model side
// by side with the same seeded workload and compares them after every slice.
// The reference keeps its pending events in a plain slice and always fires
// the least by (at, seq) — a stable sort of the schedule order by time — so
// it is independent of how the engine splits its queue between the timing
// wheel and the far heap.

// fire is one entry of a run's log: event id fired at time at, or, with id
// hookID, the timer hook fired at boundary at.
type fire struct {
	id int
	at Time
}

const hookID = -1

// splitmix is the SplitMix64 finalizer: a stateless hash, so an event's
// children depend only on its id and the seed, not on which model runs it.
func splitmix(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ x>>30) * 0xbf58476d1ce4e5b9
	x = (x ^ x>>27) * 0x94d049bb133111eb
	return x ^ x>>31
}

// queuePlan decides each event's children: 0, 1 or 2 (2 twice as often, so
// the population grows) until budget events have been created, with delays
// straddling the wheel's horizon.
type queuePlan struct {
	seed   uint64
	next   int // id of the next event to create
	budget int
}

// planDelay draws a delay from h.
func planDelay(h uint64) Time {
	switch h % 8 {
	case 0:
		return 0
	case 1:
		return 1
	case 2:
		return wheelSlots - 1
	case 3:
		return wheelSlots
	case 4:
		return wheelSlots + 1
	case 5, 6:
		return Time(1 + (h>>8)%63) // small: a bus beat or a flit ahead
	default:
		return Time((h >> 8) % uint64(100*Microsecond+1))
	}
}

// children calls sched once per child of event id, in a fixed order.
func (p *queuePlan) children(id int, sched func(d Time, id int)) {
	h := splitmix(p.seed ^ uint64(id)*0x2545f4914f6cdd1d)
	k := [4]int{0, 1, 2, 2}[h%4]
	for c := 0; c < k && p.next < p.budget; c++ {
		h = splitmix(h + uint64(c))
		id := p.next
		p.next++
		sched(planDelay(h>>2), id)
	}
}

type refEvent struct {
	at  Time
	seq uint64
	id  int
}

// refEngine is the reference model: the engine's documented semantics with
// a linear scan for the next event.
type refEngine struct {
	now     Time
	seq     uint64
	pending []refEvent
	hookAt  Time
	period  Time
	plan    queuePlan
	log     []fire
}

func (r *refEngine) schedule(d Time, id int) {
	r.seq++
	r.pending = append(r.pending, refEvent{at: r.now + d, seq: r.seq, id: id})
}

// min returns the index of the next event by (at, seq); pending is nonempty.
func (r *refEngine) min() int {
	m := 0
	for i, ev := range r.pending {
		if ev.at < r.pending[m].at || (ev.at == r.pending[m].at && ev.seq < r.pending[m].seq) {
			m = i
		}
	}
	return m
}

// fireHooks fires every hook boundary <= t; the hook re-arms one period on.
func (r *refEngine) fireHooks(t Time) {
	for r.hookAt <= t {
		at := r.hookAt
		if at > r.now {
			r.now = at
		}
		r.log = append(r.log, fire{hookID, at})
		r.hookAt = at + r.period
	}
}

func (r *refEngine) step() bool {
	if len(r.pending) == 0 {
		return false
	}
	i := r.min()
	ev := r.pending[i]
	r.fireHooks(ev.at)
	r.pending[i] = r.pending[len(r.pending)-1]
	r.pending = r.pending[:len(r.pending)-1]
	r.now = ev.at
	r.log = append(r.log, fire{ev.id, ev.at})
	r.plan.children(ev.id, r.schedule)
	return true
}

func (r *refEngine) runUntil(t Time) {
	for len(r.pending) > 0 && r.pending[r.min()].at <= t {
		r.step()
	}
	r.fireHooks(t)
	if t > r.now {
		r.now = t
	}
}

func (r *refEngine) runLimit(n int) bool {
	for i := 0; i < n; i++ {
		if !r.step() {
			return true
		}
	}
	return len(r.pending) == 0
}

// queueModel runs the same plan and hook on a real Engine.
type queueModel struct {
	e    *Engine
	plan queuePlan
	log  []fire
}

func (m *queueModel) schedule(d Time, id int) {
	m.e.Schedule(d, func() {
		m.log = append(m.log, fire{id, m.e.Now()})
		m.plan.children(id, m.schedule)
	})
}

func (m *queueModel) armHook(at, period Time) {
	var hook func(Time)
	hook = func(at Time) {
		m.log = append(m.log, fire{hookID, at})
		m.e.SetTimerHook(at+period, hook)
	}
	m.e.SetTimerHook(at, hook)
}

// checkWheel asserts the invariant the wheel's order rests on: every wheel
// event lies in [now, now+wheelSlots) in the slot of its timestamp, and each
// slot's list is one timestamp in increasing seq order.
func checkWheel(t *testing.T, e *Engine) {
	t.Helper()
	q := &e.events
	n := 0
	for s := 0; s < wheelSlots; s++ {
		if q.occ[s>>6]&(1<<(s&63)) == 0 {
			continue
		}
		var prev *event
		for i := q.head[s]; i != 0; i = q.nodes[i].next {
			ev := &q.nodes[i].ev
			if ev.at < e.now || ev.at >= e.now+wheelSlots || int(ev.at)&wheelMask != s {
				t.Fatalf("wheel slot %d holds an event at %v with now %v", s, ev.at, e.now)
			}
			if prev != nil && (prev.at != ev.at || prev.seq >= ev.seq) {
				t.Fatalf("wheel slot %d out of order: (%v,%d) then (%v,%d)", s, prev.at, prev.seq, ev.at, ev.seq)
			}
			prev = ev
			n++
		}
		if q.tail[s] == 0 || q.nodes[q.tail[s]].next != 0 {
			t.Fatalf("wheel slot %d has a bad tail", s)
		}
	}
	if n != q.nWheel {
		t.Fatalf("wheel lists hold %d events, count says %d", n, q.nWheel)
	}
}

func TestEventQueueDifferential(t *testing.T) {
	for seed := int64(1); seed <= 4; seed++ {
		plan := queuePlan{seed: uint64(seed), budget: 12000}
		ref := &refEngine{hookAt: 700, period: 700, plan: plan}
		m := &queueModel{e: NewEngine(), plan: plan}
		m.armHook(700, 700)
		for i := 0; i < 48; i++ {
			id := ref.plan.next
			ref.plan.next++
			m.plan.next++
			d := planDelay(splitmix(uint64(seed)<<32 | uint64(i)))
			ref.schedule(d, id)
			m.schedule(d, id)
		}

		drv := rand.New(rand.NewSource(seed))
		checked := 0
		for op := 0; len(ref.pending) > 0 || m.e.Pending() > 0; op++ {
			var desc string
			switch k := drv.Intn(10); {
			case k < 6:
				d := [...]Time{0, 1, 7, 300, wheelSlots - 1, wheelSlots, wheelSlots + 1, 5000, 40000}[drv.Intn(9)]
				until := ref.now + d
				ref.runUntil(until)
				m.e.RunUntil(until)
				desc = "RunUntil"
			case k < 9:
				n := drv.Intn(40)
				want := ref.runLimit(n)
				if got := m.e.RunLimit(uint64(n)); got != want {
					t.Fatalf("seed %d op %d: RunLimit(%d) = %v, reference %v", seed, op, n, got, want)
				}
				desc = "RunLimit"
			default:
				want := ref.step()
				if got := m.e.Step(); got != want {
					t.Fatalf("seed %d op %d: Step = %v, reference %v", seed, op, got, want)
				}
				desc = "Step"
			}

			if len(m.log) != len(ref.log) {
				t.Fatalf("seed %d op %d (%s): %d fires, reference %d", seed, op, desc, len(m.log), len(ref.log))
			}
			for ; checked < len(ref.log); checked++ {
				if m.log[checked] != ref.log[checked] {
					t.Fatalf("seed %d op %d (%s): fire %d = %+v, reference %+v",
						seed, op, desc, checked, m.log[checked], ref.log[checked])
				}
			}
			if m.e.Now() != ref.now {
				t.Fatalf("seed %d op %d (%s): now %v, reference %v", seed, op, desc, m.e.Now(), ref.now)
			}
			se := m.e.Stalled(StallBudget, 0, 0)
			var next Time
			if len(ref.pending) > 0 {
				next = ref.pending[ref.min()].at
			}
			if m.e.Pending() != len(ref.pending) || se.PendingEvents != len(ref.pending) || se.NextEventAt != next {
				t.Fatalf("seed %d op %d (%s): pending %d/%d next %v, reference %d next %v",
					seed, op, desc, m.e.Pending(), se.PendingEvents, se.NextEventAt, len(ref.pending), next)
			}
			checkWheel(t, m.e)
		}
		if ref.plan.next != plan.budget {
			t.Fatalf("seed %d: created %d events, want the whole budget %d", seed, ref.plan.next, plan.budget)
		}
	}
}

// TestFarBeforeWheelAtSameTime: an event that went to the far heap fires
// before a wheel event scheduled later for the same instant — seq decides
// the tie across the two halves of the queue.
func TestFarBeforeWheelAtSameTime(t *testing.T) {
	e := NewEngine()
	var got []string
	e.At(3000, func() { got = append(got, "far") })
	e.RunUntil(2500)
	e.At(3000, func() { got = append(got, "wheel") })
	if e.events.nWheel != 1 || len(e.events.far) != 1 {
		t.Fatalf("wheel %d far %d, want one each", e.events.nWheel, len(e.events.far))
	}
	e.Run()
	if len(got) != 2 || got[0] != "far" || got[1] != "wheel" {
		t.Fatalf("fire order %v, want [far wheel]", got)
	}
}

// TestWheelLoneEvent: a lone wheel event is found wherever its slot sits
// relative to now's — in now's bitmap word, in a later word, or wrapped
// around into now's own word below now's bit — and fires before a far event.
func TestWheelLoneEvent(t *testing.T) {
	for _, start := range []Time{0, 1, 63, 64, 100, 1023, 1024} {
		for _, d := range []Time{0, 1, 62, 63, 64, 1022, wheelSlots - 1} {
			e := NewEngine()
			e.RunUntil(start)
			var got []Time
			e.Schedule(3000, func() { got = append(got, e.Now()) })
			e.Schedule(d, func() { got = append(got, e.Now()) })
			e.Run()
			if len(got) != 2 || got[0] != start+d || got[1] != start+3000 {
				t.Errorf("now %v, delay %v: fired at %v, want [%v %v]", start, d, got, start+d, start+3000)
			}
		}
	}
}
