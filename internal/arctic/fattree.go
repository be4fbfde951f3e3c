package arctic

import (
	"fmt"

	"startvoyager/internal/fault"
	"startvoyager/internal/sim"
	"startvoyager/internal/stats"
)

// Config holds fat-tree timing and shape parameters. The defaults reproduce
// Arctic's published characteristics: 160 MB/s per link per direction
// (16-byte flits at 100 ns) and radix-4 routers.
type Config struct {
	Radix         int      // router radix k (default 4)
	FlitBytes     int      // bytes per flit (default 16)
	FlitTime      sim.Time // serialization time per flit (default 100 ns)
	RouterLatency sim.Time // per-hop routing decision latency (default 50 ns)
	// LaneCapacity bounds each link lane's packet buffer (default 4); full
	// lanes backpressure upstream links hop by hop.
	LaneCapacity int
	// Adaptive selects the least-occupied up-link during ascent instead of
	// the deterministic source-digit choice. Still deterministic as a
	// simulation, but packets of one (src,dst) pair may take different
	// paths and arrive out of order — suitable for network studies only;
	// the NIU protocol layers rely on deterministic routing's FIFO.
	Adaptive bool
}

// DefaultConfig returns the Arctic-like parameter set.
func DefaultConfig() Config {
	return Config{Radix: 4, FlitBytes: 16,
		FlitTime: 100 * sim.Nanosecond, RouterLatency: 50 * sim.Nanosecond}
}

func (c *Config) fillDefaults() {
	if c.Radix == 0 {
		c.Radix = 4
	}
	if c.FlitBytes == 0 {
		c.FlitBytes = 16
	}
	if c.FlitTime == 0 {
		c.FlitTime = 100 * sim.Nanosecond
	}
	if c.RouterLatency == 0 {
		c.RouterLatency = 50 * sim.Nanosecond
	}
	if c.LaneCapacity == 0 {
		c.LaneCapacity = 4
	}
}

// Stats are fabric-wide delivery counters.
type Stats struct {
	Injected  uint64
	Delivered uint64
	Bytes     uint64
	Refusals  uint64 // endpoint backpressure events
	ByPri     [2]uint64
}

// FatTree is a k-ary n-tree fabric (the Arctic topology). Routing is
// deterministic: packets ascend toward the nearest common ancestor level
// using an up-link selected by the source's least-significant digit (so the
// k leaves under a switch spread across its k up links), then descend
// following the destination's digits. Each directed link serializes at the
// configured flit rate and arbitrates two priority lanes, High first.
type FatTree struct {
	eng    *sim.Engine
	cfg    Config
	nodes  int // requested endpoint count
	n      int // levels
	k      int
	width  int // k^(n-1): words per level
	leaves int // k^n

	endpoints  []Endpoint
	inject     []*link
	eject      []*link
	links      []*link // every link, in construction order, for metrics
	readyHooks []func()
	// up[l][w*k+j]: switch(l+1, w) -> switch(l, w with digit l = j)
	// down[l][w*k+i]: switch(l, w) -> switch(l+1, w with digit l = i)
	up, down [][]*link

	stats   Stats
	latHist *stats.Histogram // end-to-end delivery latency (ns)
	faults  *fault.Injector  // nil = fault-free fabric
	free    []*journey       // recycled journey records
}

// NewFatTree builds a fabric for numNodes endpoints (rounded up internally
// to a power of the radix).
func NewFatTree(eng *sim.Engine, numNodes int, cfg Config) *FatTree {
	if numNodes < 1 {
		panic("arctic: need at least one node")
	}
	cfg.fillDefaults()
	k := cfg.Radix
	n, leaves := 1, k
	for leaves < numNodes {
		n++
		leaves *= k
	}
	f := &FatTree{
		eng:       eng,
		cfg:       cfg,
		nodes:     numNodes,
		n:         n,
		k:         k,
		width:     leaves / k,
		leaves:    leaves,
		endpoints: make([]Endpoint, numNodes),
		latHist:   stats.NewHistogram(stats.ExpBounds(1000, 2, 12)...),
	}
	f.readyHooks = make([]func(), numNodes)
	f.inject = make([]*link, numNodes)
	f.eject = make([]*link, numNodes)
	// Links carry a compact identity (kind/level/word/port) instead of a
	// formatted name: at 1024 nodes the tree holds >10k links, and eager
	// fmt.Sprintf names dominate construction cost for no benefit until a
	// human-facing surface (metrics, errors) actually asks for one.
	f.links = make([]*link, 0, 2*numNodes+2*(n-1)*f.width*k)
	for p := 0; p < numNodes; p++ {
		f.inject[p] = f.newLink(lkInject, 0, 0, p)
		f.eject[p] = f.newLink(lkEject, 0, 0, p)
		f.links = append(f.links, f.inject[p], f.eject[p])
	}
	f.up = make([][]*link, n-1)
	f.down = make([][]*link, n-1)
	for l := 0; l < n-1; l++ {
		f.up[l] = make([]*link, f.width*k)
		f.down[l] = make([]*link, f.width*k)
		for w := 0; w < f.width; w++ {
			for j := 0; j < k; j++ {
				f.up[l][w*k+j] = f.newLink(lkUp, l, w, j)
				f.down[l][w*k+j] = f.newLink(lkDown, l, w, j)
				f.links = append(f.links, f.up[l][w*k+j], f.down[l][w*k+j])
			}
		}
	}
	return f
}

// NumNodes returns the number of attachable endpoints.
func (f *FatTree) NumNodes() int { return f.nodes }

// Levels returns the number of switch levels in the tree.
func (f *FatTree) Levels() int { return f.n }

// NumLinks returns the number of directed links in the fabric, including
// per-node injection and ejection links.
func (f *FatTree) NumLinks() int { return len(f.links) }

// SetFaults attaches a fault injector; nil restores the fault-free fabric.
func (f *FatTree) SetFaults(in *fault.Injector) { f.faults = in }

// Stats returns a snapshot of fabric counters.
func (f *FatTree) Stats() Stats { return f.stats }

// RegisterMetrics registers the fabric's counters under r.
func (f *FatTree) RegisterMetrics(r *stats.Registry) {
	r.Gauge("injected", func() int64 { return int64(f.stats.Injected) })
	r.Gauge("delivered", func() int64 { return int64(f.stats.Delivered) })
	r.Gauge("bytes", func() int64 { return int64(f.stats.Bytes) })
	r.Gauge("refusals", func() int64 { return int64(f.stats.Refusals) })
	r.Gauge("high_pri", func() int64 { return int64(f.stats.ByPri[High]) })
	r.Gauge("low_pri", func() int64 { return int64(f.stats.ByPri[Low]) })
	r.Histogram("delivery_latency_ns", f.latHist)
	lr := r.Child("link")
	for _, l := range f.links {
		l := l
		lc := lr.Child(l.name())
		lc.Time("busy", func() sim.Time { return l.busyNs })
		lc.Counter("credit_stalls", &l.stallCnt)
		lc.Gauge("queued", func() int64 {
			return int64(len(l.queues[High]) + len(l.queues[Low]))
		})
	}
}

// LevelStalls aggregates the credit-stall telemetry of every link at one
// position in the tree: the injection links, one up or down switch level, or
// the ejection links. It is the per-depth view of the same per-link
// `credit_stalls` counters the metrics registry exports — coarse enough to
// stay readable at 1024 nodes, where the tree holds >10k links.
type LevelStalls struct {
	Level     string // "inject", "up-l3".."up-l0", "dn-l0".."dn-l3", "eject"
	Links     int    // links aggregated into this row
	Stalls    uint64 // stall onsets (packets that found their lane full)
	StalledNs uint64 // total nanoseconds those packets waited for a credit
}

// StallsByLevel groups per-link credit stalls by tree depth, in hop order
// for a maximal route: inject, the up levels from leaf-adjacent to root
// (up-l(n-2) .. up-l0), the down levels from root to leaf (dn-l0 ..
// dn-l(n-2)), eject. Rows are emitted for every level even when zero, so
// backpressure propagating toward the senders reads as a gradient down the
// table (tree saturation: hotspot congestion fills the ejection lane first,
// then marches up the descent levels and across the root into the ascent).
func (f *FatTree) StallsByLevel() []LevelStalls {
	rows := make([]LevelStalls, 0, 2*f.n)
	row := func(level string, match func(*link) bool) {
		r := LevelStalls{Level: level}
		for _, l := range f.links {
			if !match(l) {
				continue
			}
			r.Links++
			r.Stalls += l.stallCnt.Events
			r.StalledNs += l.stallCnt.Amount
		}
		rows = append(rows, r)
	}
	row("inject", func(l *link) bool { return l.kind == lkInject })
	for lvl := f.n - 2; lvl >= 0; lvl-- {
		lvl := lvl
		row(fmt.Sprintf("up-l%d", lvl), func(l *link) bool {
			return l.kind == lkUp && int(l.lvl) == lvl
		})
	}
	for lvl := 0; lvl <= f.n-2; lvl++ {
		lvl := lvl
		row(fmt.Sprintf("dn-l%d", lvl), func(l *link) bool {
			return l.kind == lkDown && int(l.lvl) == lvl
		})
	}
	row("eject", func(l *link) bool { return l.kind == lkEject })
	return rows
}

// InFlight counts the packets currently inside the fabric: lane queues, the
// packet on each wire, serialized packets blocked on downstream admission
// or endpoint acceptance, and packets waiting to be injected. A packet whose
// next lane is full sits both in its upstream link's blocked slot and in the
// downstream link's waiter list; it is counted once, at the blocked slot. So
// this is exactly the number of launched-but-undelivered packets, which is
// what the chaos harness's credit-conservation oracle balances against the
// injector's drop counters.
func (f *FatTree) InFlight() int {
	n := 0
	for _, l := range f.links {
		if l.wire != nil {
			n++
		}
		for pr := Priority(0); pr < numPriorities; pr++ {
			n += len(l.queues[pr])
			if l.blocked[pr] != nil {
				n++
			}
			for _, r := range l.waiters[pr] {
				if r.from == nil {
					n++
				}
			}
		}
	}
	return n
}

// CheckLanes verifies the finite-buffer invariant: no link lane ever holds
// more than the configured LaneCapacity packets. A violation means the
// credit protocol admitted past a full buffer — exactly the corruption the
// chaos harness exists to catch.
func (f *FatTree) CheckLanes() error {
	for _, l := range f.links {
		for pr := Priority(0); pr < numPriorities; pr++ {
			if got := len(l.queues[pr]); got > f.cfg.LaneCapacity {
				return fmt.Errorf("arctic: link %s lane %d holds %d packets (capacity %d)",
					l.name(), pr, got, f.cfg.LaneCapacity)
			}
		}
	}
	return nil
}

// delivered updates delivery counters and emits the per-packet trace event;
// both acceptance paths (first try and post-Poke retry) funnel through it.
//
//voyager:noalloc
func (f *FatTree) delivered(pkt *Packet) {
	f.stats.Delivered++
	f.stats.Bytes += uint64(pkt.Size)
	lat := f.eng.Now() - pkt.injected
	f.latHist.ObserveTime(lat)
	if f.eng.Observed() {
		f.eng.Instant(pkt.Dst, "net", "deliver",
			traceFields([]sim.Field{ //voyager:alloc-ok(observed runs trade allocation for visibility)
				sim.Int("src", pkt.Src), sim.I64("lat_ns", int64(lat)),
				sim.Int("size", pkt.Size)}, pkt.Trace)...)
	}
}

// dropDead traces a packet killed at the delivery boundary (dead receiver).
func (f *FatTree) dropDead(pkt *Packet) {
	if f.eng.Observed() && pkt.Trace.Traced() {
		f.eng.Instant(pkt.Dst, "net", "msg-drop",
			traceFields([]sim.Field{sim.Str("why", "dead")}, pkt.Trace)...)
	}
}

// Attach registers the endpoint for node.
func (f *FatTree) Attach(node int, ep Endpoint) { f.endpoints[node] = ep }

// digit returns base-k digit at position pos (0 = most significant of n
// digits) of leaf address p.
//
//voyager:noalloc
func (f *FatTree) digit(p, pos int) int {
	div := 1
	for i := 0; i < f.n-1-pos; i++ {
		div *= f.k
	}
	return (p / div) % f.k
}

// setWordDigit returns word w with its digit at position pos (0 = most
// significant of n-1 digits) replaced by v.
//
//voyager:noalloc
func (f *FatTree) setWordDigit(w, pos, v int) int {
	div := 1
	for i := 0; i < f.n-2-pos; i++ {
		div *= f.k
	}
	old := (w / div) % f.k
	return w + (v-old)*div
}

// journey is the one record the fabric keeps per packet, from launch to
// delivery: the packet, the router state for its next hop, the router
// pipeline delay of the lane it sits in, and its credit-wait bookkeeping.
// Every hop re-enqueues the same record, so a packet in flight costs no
// allocation. Records recycle through FatTree.free, and return there only
// when their packet is delivered (first try or after Poke) or dropped at a
// dead destination.
type journey struct {
	pkt *Packet
	// Router position: the switch the packet reaches when its current link
	// finishes serializing (level cl, word w), the nearest-common-ancestor
	// level, and whether the packet is still ascending toward it.
	cl, w, lca int
	up         bool
	// readyAt delays serialization start by the router decision latency
	// without holding the upstream lane (cut-through-style overlap).
	readyAt sim.Time
	// While credit-waiting: the upstream link to unblock on admission (nil
	// at injection) and when the stall began, for stalled-time attribution.
	from  *link
	since sim.Time
}

// startRoute places r's router state at the leaf-adjacent switch above
// pkt's source, where the injection link delivers it.
//
//voyager:noalloc
func (f *FatTree) startRoute(r *journey, pkt *Packet) {
	r.pkt = pkt
	r.lca = f.lcaLevel(pkt.Src, pkt.Dst)
	r.cl, r.w = f.n-1, pkt.Src/f.k
	r.up = r.lca < f.n-1
}

// nextLink returns the link r leaves its current switch on, and moves r's
// router state to the switch at that link's far end. Packets ascend to the
// nearest common ancestor on the up-link selected by the source's
// least-significant digit (so the k leaves under a switch spread across its
// k up links) — or, under Adaptive, the least-loaded up-link at the moment
// the packet reaches the switch — then descend following the destination's
// digits, and leave on the destination's ejection link.
//
//voyager:noalloc
func (f *FatTree) nextLink(r *journey) *link {
	switch {
	case r.up:
		j := f.digit(r.pkt.Src, f.n-1)
		if f.cfg.Adaptive {
			j = f.bestUp(r.cl-1, r.w)
		}
		l := f.up[r.cl-1][r.w*f.k+j]
		r.cl--
		r.w = f.setWordDigit(r.w, r.cl, j)
		r.up = r.cl > r.lca
		return l
	case r.cl < f.n-1:
		i := f.digit(r.pkt.Dst, r.cl)
		l := f.down[r.cl][r.w*f.k+i]
		r.w = f.setWordDigit(r.w, r.cl, i)
		r.cl++
		return l
	default:
		return f.eject[r.pkt.Dst]
	}
}

// bestUp picks the up-link out of switch (l+1, w) with the least queued
// work (ties broken by port index, keeping the simulation deterministic).
//
//voyager:noalloc
func (f *FatTree) bestUp(l, w int) int {
	best, bestLoad := 0, int(^uint(0)>>1)
	for j := 0; j < f.k; j++ {
		lk := f.up[l][w*f.k+j]
		load := len(lk.queues[High]) + len(lk.queues[Low])
		if lk.wire != nil {
			load++
		}
		if load < bestLoad {
			best, bestLoad = j, load
		}
	}
	return best
}

// HopCount returns the number of links a packet from src to dst traverses
// (including injection and ejection links).
func (f *FatTree) HopCount(src, dst int) int {
	var r journey
	f.startRoute(&r, &Packet{Src: src, Dst: dst})
	hops := 2
	for f.nextLink(&r).kind != lkEject {
		hops++
	}
	return hops
}

// Inject sends pkt from pkt.Src toward pkt.Dst.
//
//voyager:noalloc on fault-free runs; the fault injector's ruling allocates
func (f *FatTree) Inject(pkt *Packet) {
	if pkt.Size <= HeaderBytes || pkt.Size > MaxPacketBytes {
		panic(fmt.Sprintf("arctic: bad packet size %d", pkt.Size)) //voyager:alloc-ok(panic path)
	}
	if pkt.Dst < 0 || pkt.Dst >= f.nodes || pkt.Src < 0 || pkt.Src >= f.nodes {
		panic(fmt.Sprintf("arctic: bad src/dst %d->%d", pkt.Src, pkt.Dst)) //voyager:alloc-ok(panic path)
	}
	pkt.injected = f.eng.Now()
	f.stats.Injected++
	f.stats.ByPri[pkt.Priority]++
	if f.eng.Observed() {
		f.eng.Instant(pkt.Src, "net", "inject",
			traceFields([]sim.Field{ //voyager:alloc-ok(observed runs trade allocation for visibility)
				sim.Int("dst", pkt.Dst), sim.Int("size", pkt.Size),
				sim.Str("pri", pkt.Priority.String())}, pkt.Trace)...)
	}
	if f.faults != nil {
		f.injectFaulty(pkt) //voyager:alloc-ok(fault-injected runs: the injector's ruling allocates)
		return
	}
	f.launch(pkt)
}

// injectFaulty applies the fault injector's ruling to pkt and launches what
// survives it (the packet, possibly corrupted, and a duplicate), each after
// the ruled delay.
func (f *FatTree) injectFaulty(pkt *Packet) {
	launch, delay := judgeFault(f.faults, pkt, func(dup *Packet) {
		f.stats.Injected++
		f.stats.ByPri[dup.Priority]++
	})
	if len(launch) == 0 && f.eng.Observed() && pkt.Trace.Traced() {
		f.eng.Instant(pkt.Src, "net", "msg-drop",
			traceFields([]sim.Field{sim.Str("why", "fault")}, pkt.Trace)...)
	}
	for _, lp := range launch {
		lp := lp
		if delay > 0 {
			f.eng.Schedule(delay, func() { f.launch(lp) })
		} else {
			f.launch(lp)
		}
	}
}

// launch enters a (fault-approved) packet into the routed fabric.
//
//voyager:noalloc
func (f *FatTree) launch(pkt *Packet) {
	r := f.acquire()
	f.startRoute(r, pkt)
	f.inject[pkt.Src].enqueueOrWait(r, nil)
}

// acquire takes a journey record off the free list.
//
//voyager:noalloc
func (f *FatTree) acquire() *journey {
	if n := len(f.free); n > 0 {
		r := f.free[n-1]
		f.free = f.free[:n-1]
		return r
	}
	return &journey{} //voyager:alloc-ok(free-list miss: records are recycled at delivery)
}

// release returns the record of a delivered or dead-dropped packet to the
// free list.
//
//voyager:noalloc
func (f *FatTree) release(r *journey) {
	*r = journey{}
	f.free = append(f.free, r) //voyager:alloc-ok(amortized: the free list's backing array is retained)
}

// InjectReady reports whether node's injection link can take more traffic
// on the given priority lane (the NIU throttles its transmit formatting on
// this signal, independently per lane so High traffic bypasses a wedged
// Low lane).
func (f *FatTree) InjectReady(node int, pri Priority) bool {
	return f.inject[node].injectReady(pri)
}

// SetReadyHook registers fn to run whenever node's injection link regains
// room after being full.
func (f *FatTree) SetReadyHook(node int, fn func()) { f.readyHooks[node] = fn }

// lcaLevel returns the nearest-common-ancestor switch level of two leaves.
//
//voyager:noalloc
func (f *FatTree) lcaLevel(src, dst int) int {
	for pos := 0; pos < f.n-1; pos++ {
		if f.digit(src, pos) != f.digit(dst, pos) {
			return pos
		}
	}
	return f.n - 1
}

// Poke retries deliveries previously refused by node's endpoint.
func (f *FatTree) Poke(node int) { f.eject[node].poke() }

// serTime returns link serialization time for a packet of size bytes,
// rounded up to whole flits.
//
//voyager:noalloc
func (f *FatTree) serTime(size int) sim.Time {
	flits := (size + f.cfg.FlitBytes - 1) / f.cfg.FlitBytes
	return sim.Time(flits) * f.cfg.FlitTime
}

// link is one directed channel with two priority lanes, a serializer, and
// finite buffering: each lane admits at most the configured LaneCapacity
// packets; upstream links hold their lane blocked until downstream admits
// their packet, so endpoint backpressure propagates hop by hop toward the
// sender (tree saturation) — the behaviour behind the paper's warning that
// the Hold policy "can lead to deadlocking the network".
type link struct {
	f *FatTree
	// Compact identity: kind plus either the owning node (inject/eject) or
	// the (level, word, port) coordinate (up/down). The human-readable name
	// is derived on demand by name().
	kind uint8
	lvl  int16
	port int16
	word int32
	node int32 // owning node for inject/eject links
	// Lanes and waiter lists are FIFOs that shift in place, so their
	// backing arrays are reused for the life of the link.
	queues [numPriorities][]*journey
	// blocked holds a serialized packet awaiting downstream admission (or
	// endpoint acceptance); its lane cannot serialize further packets.
	blocked [numPriorities]*journey
	// waiters are packets waiting for a lane slot here: upstream links'
	// blocked packets, or packets waiting to be injected.
	waiters [numPriorities][]*journey
	// wire is the packet being serialized; the link is busy while it is set.
	wire *journey
	// kickFn and serDoneFn are the link's event callbacks, bound the first
	// time the link carries traffic so idle links cost no closure.
	kickFn, serDoneFn func()

	// Per-link telemetry: wire occupancy, and credit stalls — packets that
	// found their lane full and had to wait for a slot. stallCnt.Events
	// counts stall onsets (the window the backpressure bit), stallCnt.Amount
	// accumulates the nanoseconds those packets spent waiting (credited at
	// admission). The windowed sampler turns these into the per-link
	// per-window utilization and credit-stall series voyager-stats renders.
	busyNs   sim.Time
	stallCnt stats.Counter
}

// Link kinds (see link.kind).
const (
	lkInject = iota
	lkEject
	lkUp
	lkDown
)

func (f *FatTree) newLink(kind, lvl, word, portOrNode int) *link {
	l := &link{f: f, kind: uint8(kind), lvl: int16(lvl), word: int32(word)}
	if kind == lkInject || kind == lkEject {
		l.node = int32(portOrNode)
	} else {
		l.port = int16(portOrNode)
	}
	return l
}

// name renders the link's registry/error name from its compact identity.
func (l *link) name() string {
	switch l.kind {
	case lkInject:
		return fmt.Sprintf("inj%d", l.node)
	case lkEject:
		return fmt.Sprintf("ej%d", l.node)
	case lkUp:
		return fmt.Sprintf("up-l%d-w%d-j%d", l.lvl, l.word, l.port)
	default:
		return fmt.Sprintf("dn-l%d-w%d-i%d", l.lvl, l.word, l.port)
	}
}

// popFront removes the head of a FIFO by shifting the rest down in place.
//
//voyager:noalloc
func popFront(q []*journey) []*journey {
	copy(q, q[1:])
	q[len(q)-1] = nil
	return q[:len(q)-1]
}

// enqueueOrWait admits the packet if the lane has room, otherwise registers
// it as a credit waiter; from (if non-nil) stays blocked until admission.
//
//voyager:noalloc
func (l *link) enqueueOrWait(r *journey, from *link) {
	pr := r.pkt.Priority
	if len(l.queues[pr]) < l.f.cfg.LaneCapacity {
		l.queues[pr] = append(l.queues[pr], r) //voyager:alloc-ok(amortized: the lane grows once to LaneCapacity)
		if from != nil {
			from.unblock(pr)
		}
		l.maybeReady()
		l.kick()
		return
	}
	l.stallCnt.Events++
	r.from, r.since = from, l.f.eng.Now()
	l.waiters[pr] = append(l.waiters[pr], r) //voyager:alloc-ok(amortized: the waiter list's backing array is retained)
}

// unblock clears the lane's downstream-wait state and restarts the
// serializer.
//
//voyager:noalloc
func (l *link) unblock(pr Priority) {
	l.blocked[pr] = nil
	l.kick()
}

// kick starts serializing the next eligible packet, High lane first; a lane
// with a packet still awaiting downstream admission (or endpoint
// acceptance) is skipped.
//
//voyager:noalloc
func (l *link) kick() {
	if l.wire != nil {
		return
	}
	for pr := Priority(0); pr < numPriorities; pr++ {
		if l.blocked[pr] != nil || len(l.queues[pr]) == 0 {
			continue
		}
		if l.kickFn == nil {
			l.kickFn = l.kick       //voyager:alloc-ok(lazy callback binding, once per link that carries traffic)
			l.serDoneFn = l.serDone //voyager:alloc-ok(lazy callback binding, once per link that carries traffic)
		}
		r := l.queues[pr][0]
		if r.readyAt > l.f.eng.Now() {
			// The head is still in the router pipeline; try again when it
			// emerges (the other lane may proceed meanwhile).
			l.f.eng.At(r.readyAt, l.kickFn)
			continue
		}
		l.queues[pr] = popFront(l.queues[pr])
		// The wire is taken before the freed slot is offered to a waiter,
		// so nothing the admission runs can start a second serialization.
		l.wire = r
		l.admitWaiter(pr)
		ser := l.f.serTime(r.pkt.Size)
		l.busyNs += ser
		l.f.eng.Schedule(ser, l.serDoneFn)
		return
	}
}

// serDone runs when the wire is done with its packet.
//
//voyager:noalloc
func (l *link) serDone() {
	r := l.wire
	l.wire = nil
	l.afterSer(r)
	l.kick()
}

// admitWaiter moves one credit waiter into the freed lane slot.
//
//voyager:noalloc
func (l *link) admitWaiter(pr Priority) {
	if len(l.waiters[pr]) == 0 {
		l.maybeReady()
		return
	}
	r := l.waiters[pr][0]
	l.waiters[pr] = popFront(l.waiters[pr])
	l.stallCnt.Amount += uint64(l.f.eng.Now() - r.since)
	l.queues[pr] = append(l.queues[pr], r) //voyager:alloc-ok(amortized: the lane grows once to LaneCapacity)
	from := r.from
	r.from = nil
	if from != nil {
		from.unblock(pr)
	}
	l.maybeReady()
}

// afterSer runs when the wire is done with the packet: deliver (ejection)
// or advance toward the next hop, blocking the lane until it is accepted.
//
//voyager:noalloc
func (l *link) afterSer(r *journey) {
	pr := r.pkt.Priority
	if l.kind != lkEject {
		l.blocked[pr] = r
		r.readyAt = l.f.eng.Now() + l.f.cfg.RouterLatency
		l.f.nextLink(r).enqueueOrWait(r, l)
		return
	}
	if l.f.faults != nil && l.f.faults.DropOnDelivery(r.pkt.Dst) { //voyager:alloc-ok(fault-injected runs consult the injector)
		l.f.dropDead(r.pkt) //voyager:alloc-ok(fault-injected runs trace the drop)
		l.f.release(r)
		return // dead destination: the packet dies, the lane stays free
	}
	ep := l.f.endpoints[l.node]
	if ep == nil {
		panic("arctic: delivery to unattached node " + l.name()) //voyager:alloc-ok(panic path)
	}
	if ep.TryDeliver(r.pkt) { //voyager:alloc-ok(endpoint dispatch: the node's receive path is pinned by its own budget test)
		l.f.delivered(r.pkt)
		l.f.release(r)
		return
	}
	l.f.stats.Refusals++
	l.blocked[pr] = r
}

// poke retries endpoint delivery of stalled packets (ejection links).
//
//voyager:noalloc
func (l *link) poke() {
	progressed := false
	for pr := Priority(0); pr < numPriorities; pr++ {
		r := l.blocked[pr]
		if r == nil {
			continue
		}
		if l.f.faults != nil && l.f.faults.DropOnDelivery(r.pkt.Dst) { //voyager:alloc-ok(fault-injected runs consult the injector)
			l.blocked[pr] = nil
			l.f.dropDead(r.pkt) //voyager:alloc-ok(fault-injected runs trace the drop)
			l.f.release(r)
			progressed = true
			continue
		}
		if l.f.endpoints[l.node].TryDeliver(r.pkt) { //voyager:alloc-ok(endpoint dispatch: the node's receive path is pinned by its own budget test)
			l.blocked[pr] = nil
			l.f.delivered(r.pkt)
			l.f.release(r)
			progressed = true
		} else {
			l.f.stats.Refusals++
		}
	}
	if progressed {
		l.kick()
	}
}

// maybeReady fires the node's injection-ready hook when an injection link
// regains room (the NIU-side flow control signal).
//
//voyager:noalloc
func (l *link) maybeReady() {
	if l.kind != lkInject {
		return
	}
	if hook := l.f.readyHooks[l.node]; hook != nil &&
		(l.injectReady(High) || l.injectReady(Low)) {
		hook()
	}
}

// injectReady reports whether the lane can take another packet.
//
//voyager:noalloc
func (l *link) injectReady(pr Priority) bool {
	return len(l.queues[pr]) < l.f.cfg.LaneCapacity && len(l.waiters[pr]) == 0
}
