package arctic

import (
	"encoding/binary"
	"hash/fnv"
	"math/rand"
	"testing"

	"startvoyager/internal/sim"
)

// deliveryOrder drives seeded random traffic through a 64-node tree with
// two-packet lanes. One third of the packets target a hot node whose
// endpoint refuses every other delivery attempt and is poked on a timer, so
// backpressure reaches deep into the tree. It returns the engine's event
// count, the end time, and an FNV-64a hash over the delivery sequence
// (time, src, dst, payload id).
func deliveryOrder(t *testing.T, adaptive bool) (executed uint64, end sim.Time, hash uint64) {
	t.Helper()
	const (
		nodes = 64
		hot   = 5
		total = 1500
	)
	eng := sim.NewEngine()
	cfg := DefaultConfig()
	cfg.LaneCapacity = 2
	cfg.Adaptive = adaptive
	f := NewFatTree(eng, nodes, cfg)

	h := fnv.New64a()
	var rec [32]byte
	got := 0
	record := func(p *Packet) {
		binary.LittleEndian.PutUint64(rec[0:], uint64(eng.Now()))
		binary.LittleEndian.PutUint64(rec[8:], uint64(p.Src))
		binary.LittleEndian.PutUint64(rec[16:], uint64(p.Dst))
		binary.LittleEndian.PutUint64(rec[24:], uint64(p.Payload.(int)))
		h.Write(rec[:])
		got++
	}
	tries := 0
	for i := 0; i < nodes; i++ {
		if i == hot {
			f.Attach(i, &selectiveEndpoint{accept: func(p *Packet) bool {
				tries++
				if tries%2 == 1 {
					return false
				}
				record(p)
				return true
			}})
			continue
		}
		f.Attach(i, EndpointFunc(record))
	}

	rng := rand.New(rand.NewSource(14))
	for i := 0; i < total; i++ {
		src := rng.Intn(nodes)
		dst := rng.Intn(nodes - 1)
		if dst >= src {
			dst++
		}
		if rng.Intn(3) == 0 {
			dst = hot
			if src == hot {
				src = hot + 1
			}
		}
		pkt := &Packet{Src: src, Dst: dst, Priority: Priority(rng.Intn(2)),
			Size: HeaderBytes + 1 + rng.Intn(MaxPayloadBytes), Payload: i}
		eng.At(sim.Time(rng.Intn(40000))*sim.Nanosecond, func() { f.Inject(pkt) })
	}
	var tick func()
	tick = func() {
		f.Poke(hot)
		if got < total {
			eng.Schedule(700*sim.Nanosecond, tick)
		}
	}
	eng.Schedule(700*sim.Nanosecond, tick)
	eng.Run()

	if got != total {
		t.Fatalf("delivered %d of %d packets", got, total)
	}
	if n := f.InFlight(); n != 0 {
		t.Fatalf("%d packets still buffered after drain", n)
	}
	if err := f.CheckLanes(); err != nil {
		t.Fatal(err)
	}
	return eng.Executed(), eng.Now(), h.Sum64()
}

// TestDeliveryOrderGolden pins the fabric's event schedule: the event count,
// the end time and the exact delivery sequence of a backpressured run, for
// both routing modes. Any change to when a hop is scheduled, or to the
// order two same-time events fire in, moves at least one of the three.
func TestDeliveryOrderGolden(t *testing.T) {
	cases := []struct {
		name     string
		adaptive bool
		executed uint64
		end      sim.Time
		hash     uint64
	}{
		{"deterministic", false, 13018, 315000, 0x9109dc7b30cde2f},
		{"adaptive", true, 14080, 314300, 0x21e5a99c464008f4},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			executed, end, hash := deliveryOrder(t, c.adaptive)
			if executed != c.executed || end != c.end || hash != c.hash {
				t.Errorf("executed=%d end=%d hash=%#x, want executed=%d end=%d hash=%#x",
					executed, int64(end), hash, c.executed, int64(c.end), c.hash)
			}
		})
	}
}

// TestInFlightCountsCreditWaitersOnce: a packet waiting for a lane slot
// sits in the upstream link's blocked slot and in the downstream link's
// waiter list at once; InFlight must count it once, so that it equals
// injected minus delivered after the event queue drains.
func TestInFlightCountsCreditWaitersOnce(t *testing.T) {
	eng, f, cols := buildTree(t, 16)
	cols[0].refuse = true
	for src := 1; src < 16; src++ {
		for i := 0; i < 3; i++ {
			f.Inject(&Packet{Src: src, Dst: 0, Priority: Low, Size: 96})
		}
	}
	eng.Run()
	st := f.Stats()
	want := int(st.Injected - st.Delivered)
	if want != 45 {
		t.Fatalf("injected-delivered = %d, want 45", want)
	}
	if got := f.InFlight(); got != want {
		t.Errorf("InFlight() = %d, want injected-delivered = %d", got, want)
	}
}

// countingEndpoint accepts every packet and counts it.
type countingEndpoint struct{ n int }

func (c *countingEndpoint) TryDeliver(*Packet) bool { c.n++; return true }

// TestFatTreeSteadyStateAllocs pins the packet path at zero allocations per
// delivered packet once the tree is warm: journey records, lane and waiter
// buffers and link callbacks are all recycled.
func TestFatTreeSteadyStateAllocs(t *testing.T) {
	const nodes = 64
	eng := sim.NewEngine()
	f := NewFatTree(eng, nodes, DefaultConfig())
	sink := &countingEndpoint{}
	for i := 0; i < nodes; i++ {
		f.Attach(i, sink)
	}
	// Each node sends one packet along a permutation and two onto node 0,
	// on both lanes, so the batch crosses every tree level and backs up.
	pkts := make([]Packet, 0, 3*nodes)
	for s := 0; s < nodes; s++ {
		pkts = append(pkts,
			Packet{Src: s, Dst: (s*7 + 3) % nodes, Priority: Low, Size: 64},
			Packet{Src: s, Dst: 0, Priority: Low, Size: 96},
			Packet{Src: s, Dst: 0, Priority: High, Size: 32})
	}
	batch := func() {
		for i := range pkts {
			f.Inject(&pkts[i])
		}
		eng.Run()
	}
	batch() // warm the record pool, lane buffers and link callbacks
	before := sink.n
	allocs := testing.AllocsPerRun(10, batch)
	perRun := (sink.n - before) / 11 // AllocsPerRun adds one warm-up call
	if perRun != len(pkts) {
		t.Fatalf("delivered %d packets per batch, want %d", perRun, len(pkts))
	}
	if allocs != 0 {
		t.Errorf("steady-state fabric allocates %.0f times per %d-packet batch, want 0",
			allocs, len(pkts))
	}
}

// hotspotSource paces all-to-one traffic on a 256-node tree: every period
// it injects one packet from each of the 255 other nodes toward node 0.
// The burst backs up node 0's ejection link and the descent above it, and
// the period leaves it just enough time to drain before the next burst.
type hotspotSource struct {
	f       *FatTree
	eng     *sim.Engine
	ring    []Packet
	sent, n int
	sink    *countingEndpoint
	tickFn  func()
}

const hotspotPeriod = 255 * 640 * sim.Nanosecond

func (h *hotspotSource) tick() {
	for src := 1; src < 256 && h.sent < h.n; src++ {
		if h.sent-h.sink.n >= len(h.ring) {
			panic("arctic: hotspot ring overrun")
		}
		p := &h.ring[h.sent%len(h.ring)]
		*p = Packet{Src: src, Dst: 0, Priority: Low, Size: 96}
		h.f.Inject(p)
		h.sent++
	}
	if h.sent < h.n {
		h.eng.Schedule(hotspotPeriod, h.tickFn)
	}
}

// BenchmarkFatTreeHotspot measures the host cost of one delivered packet in
// all-to-one traffic on a 256-node tree. Run it with
// `go test -bench FatTreeHotspot ./internal/arctic/`.
func BenchmarkFatTreeHotspot(b *testing.B) {
	eng := sim.NewEngine()
	f := NewFatTree(eng, 256, DefaultConfig())
	sink := &countingEndpoint{}
	for i := 0; i < 256; i++ {
		f.Attach(i, sink)
	}
	h := &hotspotSource{f: f, eng: eng, ring: make([]Packet, 4*255), n: b.N, sink: sink}
	h.tickFn = h.tick
	eng.Schedule(0, h.tickFn)
	b.ReportAllocs()
	b.ResetTimer()
	eng.Run()
	b.StopTimer()
	if sink.n != b.N {
		b.Fatalf("delivered %d of %d packets", sink.n, b.N)
	}
}
