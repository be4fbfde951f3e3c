package main

import (
	"encoding/binary"
	"fmt"
	"io"
	"sort"

	"startvoyager/internal/arctic"
	"startvoyager/internal/cluster"
	"startvoyager/internal/core"
	"startvoyager/internal/fault"
	"startvoyager/internal/mpi"
	"startvoyager/internal/prof"
	"startvoyager/internal/sim"
	"startvoyager/internal/stats"
)

// Workload sizes. They are fixed here, not flags: every figure this
// benchmark reports is comparable only between runs of the same sizes.
const (
	sortRanks       = 64 // samplesort ranks (one per node)
	sortKeysPerRank = 64

	hotspotNodes   = 1024 // bare 5-level radix-4 fat tree
	hotspotPerSrc  = 128  // packets each of the 1023 sources injects
	hotspotBytes   = 96   // wire size of every packet
	hotspotOffered = 0.9  // offered load on node 0's ejection link

	relNodes  = 16 // R-Basic ring: node i sends to node i+1
	relMsgs   = 100
	relBytes  = 64
	relDrop   = "0.05"               // low-lane drop probability
	relWindow = 20 * sim.Microsecond // series sampler window, as voyager-run

	allreduceNodes = 1024
	allreduceSkew  = 2000 // max seeded per-rank arrival skew, in ns
)

// A workload is one canonical run. new derives every input from the seed
// before any timing starts; the simulator only ever sees those inputs.
type workload struct {
	name string
	// budget caps simulated time at several times the workload's normal
	// end: a stall ends the run instead of hanging it, and since blocked
	// receives poll, a stalled run's host time grows with the budget.
	budget sim.Time
	new    func(seed uint64) instance
}

var workloads = []*workload{
	{name: "sort", budget: 3 * sim.Millisecond, new: newSort},             // ends near 0.34 ms
	{name: "hotspot", budget: 500 * sim.Millisecond, new: newHotspot},     // ends near 87 ms
	{name: "reliable", budget: 10 * sim.Millisecond, new: newReliable},    // ends near 1.4 ms
	{name: "allreduce", budget: 500 * sim.Microsecond, new: newAllreduce}, // ends near 66 us
}

func lookupWorkload(name string) (*workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return nil, fmt.Errorf("unknown workload %q (have sort, hotspot, reliable, allreduce)", name)
}

// An instance is one workload's machine moving through the measured
// phases. The harness calls construct, attach and spawn (set-up), drives
// the engine, then finish, check, end and counters, timing each call.
type instance interface {
	construct()
	attach()
	spawn()
	engine() *sim.Engine
	// live is the number of procs that legitimately stay blocked once the
	// engine drains (the firmware service loops).
	live() int
	// finish stops the instruments and writes their exports to w.
	finish(w io.Writer) error
	// check verifies every op's output; unfinished ops count as failed.
	check() (attempted, failed int)
	// end is the simulated time the last op completed.
	end() sim.Time
	counters() counters
}

// splitmix is a SplitMix64 stream: the benchmark's only source of input
// randomness, so one seed fixes every input.
type splitmix uint64

func newStream(seed uint64, stream uint64) *splitmix {
	s := splitmix(seed*0x9E3779B97F4A7C15 ^ stream*0xD1B54A32D192ED03)
	return &s
}

func (s *splitmix) next() uint64 {
	*s += 0x9E3779B97F4A7C15
	z := uint64(*s)
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return z ^ (z >> 31)
}

// machineRun is the part every full-machine workload shares.
type machineRun struct {
	cfg  cluster.Config
	m    *core.Machine
	last sim.Time
}

func (r *machineRun) construct()             { r.m = core.NewMachineConfig(r.cfg) }
func (r *machineRun) attach()                {}
func (r *machineRun) engine() *sim.Engine    { return r.m.Eng }
func (r *machineRun) live() int              { return r.m.FirmwareLoops() }
func (r *machineRun) finish(io.Writer) error { return nil }
func (r *machineRun) end() sim.Time          { return r.last }
func (r *machineRun) counters() counters     { return machineCounters(r.m) }
func (r *machineRun) done(p *sim.Proc)       { r.last = max(r.last, p.Now()) }
func (r *machineRun) spawnEach(n int, name string, body func(rank int, p *sim.Proc, a *core.API)) {
	for i := 0; i < n; i++ {
		i := i
		r.m.Go(i, name, func(p *sim.Proc, a *core.API) { body(i, p, a) })
	}
}

// --- sort: MPI samplesort ---

type sortRun struct {
	machineRun
	keys     [][]uint32 // per-rank input
	out      [][]uint32 // per-rank final partition
	lo, hi   []uint64   // per-rank splitter range [lo, hi)
	finished []bool
}

func newSort(seed uint64) instance {
	r := &sortRun{machineRun: machineRun{cfg: cluster.DefaultConfig(sortRanks)},
		keys: make([][]uint32, sortRanks), out: make([][]uint32, sortRanks),
		lo: make([]uint64, sortRanks), hi: make([]uint64, sortRanks),
		finished: make([]bool, sortRanks)}
	rng := newStream(seed, 1)
	for i := range r.keys {
		r.keys[i] = make([]uint32, sortKeysPerRank)
		for k := range r.keys[i] {
			r.keys[i][k] = uint32(rng.next() % 1_000_000)
		}
	}
	return r
}

func (r *sortRun) spawn() {
	n := sortRanks
	r.spawnEach(n, "sort", func(rank int, p *sim.Proc, a *core.API) {
		c := mpi.World(r.m, rank)
		keys := append([]uint32(nil), r.keys[rank]...)
		sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
		a.Compute(p, sim.Time(len(keys))*50*sim.Nanosecond)

		samples := make([]uint32, 0, n-1)
		for i := 1; i < n; i++ {
			samples = append(samples, keys[i*len(keys)/n])
		}
		gathered := c.Gather(p, 0, encodeU32(samples))
		var splitters []uint32
		if rank == 0 {
			var pool []uint32
			for _, g := range gathered {
				pool = append(pool, decodeU32(g)...)
			}
			sort.Slice(pool, func(i, j int) bool { return pool[i] < pool[j] })
			for i := 1; i < n; i++ {
				splitters = append(splitters, pool[i*len(pool)/n])
			}
		}
		splitters = decodeU32(c.Bcast(p, 0, encodeU32(splitters)))

		buckets := make([][]uint32, n)
		for _, k := range keys {
			b := sort.Search(len(splitters), func(i int) bool { return k < splitters[i] })
			buckets[b] = append(buckets[b], k)
		}
		parts := make([][]byte, n)
		for i := range parts {
			parts[i] = encodeU32(buckets[i])
		}
		var mine []uint32
		for _, part := range c.Alltoall(p, parts) {
			mine = append(mine, decodeU32(part)...)
		}
		sort.Slice(mine, func(i, j int) bool { return mine[i] < mine[j] })
		a.Compute(p, sim.Time(len(mine))*50*sim.Nanosecond)
		c.Barrier(p)

		r.lo[rank], r.hi[rank] = 0, 1<<32
		if rank > 0 {
			r.lo[rank] = uint64(splitters[rank-1])
		}
		if rank < len(splitters) {
			r.hi[rank] = uint64(splitters[rank])
		}
		r.out[rank], r.finished[rank] = mine, true
		r.done(p)
	})
}

// check: a rank fails if it did not finish, if its partition is unsorted or
// leaves its splitter range, or if the union of all partitions is not a
// permutation of the input keys.
func (r *sortRun) check() (attempted, failed int) {
	var in, got []uint32
	for i := range r.keys {
		in = append(in, r.keys[i]...)
		got = append(got, r.out[i]...)
	}
	sort.Slice(in, func(i, j int) bool { return in[i] < in[j] })
	sort.Slice(got, func(i, j int) bool { return got[i] < got[j] })
	perm := len(in) == len(got)
	for i := 0; perm && i < len(in); i++ {
		perm = in[i] == got[i]
	}
	for rank, part := range r.out {
		ok := perm && r.finished[rank]
		for i, k := range part {
			if uint64(k) < r.lo[rank] || uint64(k) >= r.hi[rank] || (i > 0 && part[i-1] > k) {
				ok = false
			}
		}
		if !ok {
			failed++
		}
	}
	return len(r.out), failed
}

func encodeU32(keys []uint32) []byte {
	b := make([]byte, 4*len(keys))
	for i, k := range keys {
		binary.BigEndian.PutUint32(b[i*4:], k)
	}
	return b
}

func decodeU32(b []byte) []uint32 {
	out := make([]uint32, len(b)/4)
	for i := range out {
		out[i] = binary.BigEndian.Uint32(b[i*4:])
	}
	return out
}

// --- hotspot: open-loop all-to-one on a bare fat tree ---

type hotspotRun struct {
	at    []sim.Time // injection time of packet i (source i/hotspotPerSrc + 1)
	f     *arctic.FatTree
	eng   *sim.Engine
	seen  []uint8 // deliveries of packet i at node 0
	stray int     // deliveries anywhere else
	last  sim.Time
}

func newHotspot(seed uint64) instance {
	total := (hotspotNodes - 1) * hotspotPerSrc
	// Injection times are uniform over a window sized so that the offered
	// load on node 0's ejection link is hotspotOffered: the link runs near
	// saturation, and the drain time still depends on the schedule.
	net := arctic.DefaultConfig()
	flits := sim.Time((hotspotBytes + net.FlitBytes - 1) / net.FlitBytes)
	window := uint64(float64(sim.Time(total)*flits*net.FlitTime) / hotspotOffered)
	r := &hotspotRun{at: make([]sim.Time, total), seen: make([]uint8, total)}
	rng := newStream(seed, 2)
	for i := range r.at {
		r.at[i] = sim.Time(rng.next() % window)
	}
	return r
}

func (r *hotspotRun) construct() {
	r.eng = sim.NewEngine()
	r.f = arctic.NewFatTree(r.eng, hotspotNodes, arctic.DefaultConfig())
}

func (r *hotspotRun) attach() {
	r.f.Attach(0, arctic.EndpointFunc(func(pkt *arctic.Packet) {
		r.seen[pkt.Payload.(int)]++
		r.last = r.eng.Now()
	}))
	stray := arctic.EndpointFunc(func(*arctic.Packet) { r.stray++ })
	for i := 1; i < hotspotNodes; i++ {
		r.f.Attach(i, stray)
	}
}

func (r *hotspotRun) spawn() {
	pkts := make([]arctic.Packet, len(r.at))
	for i := range pkts {
		pkt := &pkts[i]
		*pkt = arctic.Packet{Src: 1 + i/hotspotPerSrc, Dst: 0, Priority: arctic.Low,
			Size: hotspotBytes, Payload: i}
		r.eng.At(r.at[i], func() { r.f.Inject(pkt) })
	}
}

func (r *hotspotRun) engine() *sim.Engine    { return r.eng }
func (r *hotspotRun) live() int              { return 0 }
func (r *hotspotRun) finish(io.Writer) error { return nil }
func (r *hotspotRun) end() sim.Time          { return r.last }
func (r *hotspotRun) counters() counters     { return fabricCounters(r.f) }

// check: a packet fails unless node 0 received it exactly once; a packet
// delivered anywhere else also fails the run.
func (r *hotspotRun) check() (attempted, failed int) {
	for _, n := range r.seen {
		if n != 1 {
			failed++
		}
	}
	return len(r.seen), failed + r.stray
}

// --- reliable: R-Basic ring under a drop plan, every instrument attached ---

type relRun struct {
	machineRun
	profiler *prof.Profiler
	sampler  *stats.Sampler
	sendErr  [][]bool  // [sender][seq]: SendReliable returned an error or never returned
	recv     [][]uint8 // [receiver][seq]: intact deliveries from its ring predecessor
	bad      []int     // per receiver: deliveries from the wrong sender or corrupted
}

func newReliable(seed uint64) instance {
	plan, err := fault.ParsePlan(fmt.Sprintf("seed=%d,drop.low=%s", seed, relDrop))
	if err != nil {
		panic(err) // the plan text is a constant apart from the seed
	}
	r := &relRun{machineRun: machineRun{cfg: cluster.DefaultConfig(relNodes)},
		profiler: prof.New(), bad: make([]int, relNodes)}
	r.cfg.Faults = plan
	// Attached through the config so the firmware loops spawned during
	// construction are profiled from time zero, as voyager-run -prof does.
	r.cfg.Profiler = r.profiler
	for i := 0; i < relNodes; i++ {
		r.sendErr = append(r.sendErr, make([]bool, relMsgs))
		r.recv = append(r.recv, make([]uint8, relMsgs))
		for k := range r.sendErr[i] {
			r.sendErr[i][k] = true
		}
	}
	return r
}

func (r *relRun) attach() {
	r.m.Trace(1 << 18)
	r.sampler = r.m.Series(stats.SamplerConfig{Window: relWindow})
}

// relPayload is message seq from sender: its identity, then a pattern
// derived from both, so a corrupted or misrouted payload cannot pass.
func relPayload(sender, seq int) []byte {
	b := make([]byte, relBytes)
	binary.BigEndian.PutUint16(b[0:], uint16(sender))
	binary.BigEndian.PutUint16(b[2:], uint16(seq))
	for i := 4; i < len(b); i++ {
		b[i] = byte(sender*31 + seq*7 + i)
	}
	return b
}

func (r *relRun) spawn() {
	r.spawnEach(relNodes, "send", func(i int, p *sim.Proc, a *core.API) {
		for k := 0; k < relMsgs; k++ {
			r.sendErr[i][k] = a.SendReliable(p, (i+1)%relNodes, relPayload(i, k)) != nil
		}
		r.done(p)
	})
	r.spawnEach(relNodes, "recv", func(i int, p *sim.Proc, a *core.API) {
		from := (i + relNodes - 1) % relNodes
		for k := 0; k < relMsgs; k++ {
			src, pl := a.RecvReliable(p)
			seq := -1
			if len(pl) == relBytes {
				seq = int(binary.BigEndian.Uint16(pl[2:]))
			}
			if src != from || seq < 0 || seq >= relMsgs || string(pl) != string(relPayload(from, seq)) {
				r.bad[i]++
				continue
			}
			r.recv[i][seq]++
		}
		r.done(p)
	})
}

func (r *relRun) finish(w io.Writer) error {
	r.sampler.Finish()
	r.profiler.Finish(r.m.Eng.Now())
	meta := &stats.RunMeta{Tool: "hostbench", Mechanism: "reliable", Nodes: relNodes,
		Seed: r.cfg.Faults.Seed, FaultPlan: r.cfg.Faults.String(), SimTimeNs: int64(r.last)}
	doc := r.profiler.Doc(meta)
	// The artifacts voyager-run -series -prof writes. The trace ring stays
	// attached for its run-time cost, but its Perfetto export is not part
	// of that set.
	for _, export := range []func(io.Writer) error{
		func(w io.Writer) error { return r.m.Metrics().WriteJSONMeta(w, r.m.Eng.Now(), meta) },
		func(w io.Writer) error { return r.sampler.WriteJSON(w, meta) },
		doc.WriteJSON, doc.WriteFolded, doc.WritePprof,
	} {
		if err := export(w); err != nil {
			return err
		}
	}
	return nil
}

// check: a SendReliable fails on an error return, or unless its payload
// reached the ring successor exactly once and intact.
func (r *relRun) check() (attempted, failed int) {
	for i := range r.sendErr {
		recv := r.recv[(i+1)%relNodes]
		for k, errored := range r.sendErr[i] {
			if errored || recv[k] != 1 {
				failed++
			}
		}
	}
	for _, b := range r.bad {
		failed += b
	}
	return relNodes * relMsgs, failed
}

// --- allreduce: one 8-byte MPI Sum allreduce on the full machine ---

type allreduceRun struct {
	machineRun
	val  []float64  // rank r's input: a seeded permutation of 0..n-1
	skew []sim.Time // compute before entering the collective
	got  []float64
	ok   []bool
}

func newAllreduce(seed uint64) instance {
	n := allreduceNodes
	r := &allreduceRun{machineRun: machineRun{cfg: cluster.DefaultConfig(n)},
		val: make([]float64, n), skew: make([]sim.Time, n),
		got: make([]float64, n), ok: make([]bool, n)}
	rng := newStream(seed, 4)
	for i := range r.val {
		r.val[i] = float64(i)
	}
	for i := n - 1; i > 0; i-- { // Fisher-Yates
		j := int(rng.next() % uint64(i+1))
		r.val[i], r.val[j] = r.val[j], r.val[i]
	}
	for i := range r.skew {
		r.skew[i] = sim.Time(rng.next()%allreduceSkew) * sim.Nanosecond
	}
	return r
}

func (r *allreduceRun) spawn() {
	r.spawnEach(allreduceNodes, "rank", func(rank int, p *sim.Proc, a *core.API) {
		c := mpi.World(r.m, rank)
		a.Compute(p, r.skew[rank])
		if res := c.Allreduce(p, mpi.Sum, []float64{r.val[rank]}); len(res) == 1 {
			r.got[rank], r.ok[rank] = res[0], true
		}
		r.done(p)
	})
}

// check: a rank fails unless its result equals n(n-1)/2.
func (r *allreduceRun) check() (attempted, failed int) {
	want := float64(allreduceNodes * (allreduceNodes - 1) / 2)
	for i := range r.got {
		if !r.ok[i] || r.got[i] != want {
			failed++
		}
	}
	return len(r.got), failed
}
