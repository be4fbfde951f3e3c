package sim

import "math/bits"

// event is one scheduled callback: 24 bytes, stored by value.
type event struct {
	at  Time
	seq uint64
	fn  func()
}

// before reports whether a orders ahead of b. (at, seq) is a strict total
// order — seq is unique and monotonic — so the pop sequence of any correct
// priority queue over it is identical, which is what keeps the queue
// bit-compatible with the container/heap implementation it replaced.
//
//voyager:noalloc
func (a *event) before(b *event) bool {
	return a.at < b.at || (a.at == b.at && a.seq < b.seq)
}

// eventHeap is a value-based 4-ary min-heap ordered by (at, seq), the event
// queue's half for events past the timing wheel's horizon. Events are
// stored inline (no per-push pointer allocation, no interface{} boxing), the
// backing array is retained across pops, and the 4-ary layout halves tree
// height versus a binary heap — sift-downs touch fewer cache lines on the
// deep queues the full-machine models build.
type eventHeap []event

// push appends ev and sifts it up to its heap position. The new event is
// held aside while ancestors shift down, so each level costs one event copy
// rather than a swap's three.
//
//voyager:noalloc
func (h *eventHeap) push(ev event) {
	s := append(*h, ev) //voyager:alloc-ok(amortized: heap backing array is retained across pops)
	i := len(s) - 1
	for i > 0 {
		parent := (i - 1) / 4
		if !ev.before(&s[parent]) {
			break
		}
		s[i] = s[parent]
		i = parent
	}
	s[i] = ev
	*h = s
}

// pop removes and returns the minimum event. The displaced last element is
// held aside while the smallest children shift up, then placed once.
//
//voyager:noalloc
func (h *eventHeap) pop() event {
	s := *h
	root := s[0]
	n := len(s) - 1
	moved := s[n]
	s[n] = event{} // release the closure so the GC can collect it
	s = s[:n]
	*h = s
	if n == 0 {
		return root
	}
	i := 0
	for {
		first := 4*i + 1
		if first >= n {
			break
		}
		last := first + 4
		if last > n {
			last = n
		}
		min := first
		for c := first + 1; c < last; c++ {
			if s[c].before(&s[min]) {
				min = c
			}
		}
		if !s[min].before(&moved) {
			break
		}
		s[i] = s[min]
		i = min
	}
	s[i] = moved
	return root
}

// The timing wheel covers the next wheelSlots ns of simulated time with one
// 1-ns slot each. Almost every event the machine model schedules is a bus
// beat, an I-Bus transfer or a link flit a few ns to a few hundred ns ahead;
// only pre-scheduled traffic and long timeouts reach past the horizon.
const (
	wheelSlots = 1024
	wheelMask  = wheelSlots - 1
	wheelWords = wheelSlots / 64

	// Sources peek reports besides a wheel slot index.
	fromFar    = -1 // the far heap's root
	queueEmpty = -2 // nothing is pending
)

// wheelNode is one pooled wheel entry. Index 0 of the pool is a sentinel
// that is never handed out, so a zero next or free ends its list.
type wheelNode struct {
	ev   event
	next int32
}

// eventQueue is the engine's priority queue over (at, seq): a timing wheel
// for events due in [now, now+wheelSlots) and the 4-ary heap for the rest.
//
// Every pending event has at >= now, and an event enters the wheel only if
// at < now+wheelSlots; now never decreases, so every wheel event stays in
// [now, now+wheelSlots). A slot therefore only ever holds events of one
// timestamp, and since pushes arrive in seq order its FIFO is in seq order.
// Both halves are correct priority queues over the same strict total order,
// so the earlier of their two heads is the global minimum and the pop
// sequence is the one a single heap would give.
type eventQueue struct {
	occ    [wheelWords]uint64 // slot occupancy bitmap
	head   [wheelSlots]int32  // first node of each occupied slot
	tail   [wheelSlots]int32  // last node of each occupied slot
	nodes  []wheelNode        // node pool; nodes[0] is the sentinel
	free   int32              // free node list, threaded through next
	nWheel int                // events in the wheel
	far    eventHeap          // events due at or past now+wheelSlots when pushed
}

// len returns the number of pending events.
//
//voyager:noalloc
func (q *eventQueue) len() int { return q.nWheel + len(q.far) }

// push schedules ev; now is the engine's current time.
//
//voyager:noalloc
func (q *eventQueue) push(now Time, ev event) {
	if ev.at-now >= wheelSlots {
		q.far.push(ev)
		return
	}
	n := q.free
	if n != 0 {
		q.free = q.nodes[n].next
		q.nodes[n] = wheelNode{ev: ev}
	} else {
		n = q.newNode(ev)
	}
	s := int(ev.at) & wheelMask
	if bit := uint64(1) << (s & 63); q.occ[s>>6]&bit == 0 {
		q.occ[s>>6] |= bit
		q.head[s] = n
	} else {
		q.nodes[q.tail[s]].next = n
	}
	q.tail[s] = n
	q.nWheel++
}

// newNode grows the pool by one node holding ev; steady state recycles
// nodes through the free list instead.
//
//voyager:noalloc
func (q *eventQueue) newNode(ev event) int32 {
	if len(q.nodes) == 0 {
		q.nodes = append(q.nodes, wheelNode{}) //voyager:alloc-ok(pool warm-up: the sentinel node)
	}
	q.nodes = append(q.nodes, wheelNode{ev: ev}) //voyager:alloc-ok(pool growth; recycled thereafter)
	return int32(len(q.nodes) - 1)
}

// wheelHead returns the slot of the earliest wheel event, or -1 if the
// wheel is empty. Wheel events lie in [now, now+wheelSlots), so the first
// occupied slot at or cyclically after now's slot holds the earliest.
//
//voyager:noalloc
func (q *eventQueue) wheelHead(now Time) int {
	if q.nWheel == 0 {
		return -1
	}
	s := int(now) & wheelMask
	w := s >> 6
	if word := q.occ[w] >> (s & 63); word != 0 {
		return s + bits.TrailingZeros64(word)
	}
	// The last pass revisits the starting word whole: its bits at or above
	// s are clear, so any set bit there is a slot that wrapped around.
	for i := 0; i < wheelWords; i++ {
		w = (w + 1) & (wheelWords - 1)
		if word := q.occ[w]; word != 0 {
			return w<<6 | bits.TrailingZeros64(word)
		}
	}
	return -1
}

// peek locates the earliest pending event: its time, and its source for
// take — a wheel slot, fromFar, or queueEmpty when nothing is pending.
//
//voyager:noalloc
func (q *eventQueue) peek(now Time) (Time, int) {
	s := q.wheelHead(now)
	if s < 0 {
		if len(q.far) == 0 {
			return 0, queueEmpty
		}
		return q.far[0].at, fromFar
	}
	ev := &q.nodes[q.head[s]].ev
	if len(q.far) > 0 && q.far[0].before(ev) {
		return q.far[0].at, fromFar
	}
	return ev.at, s
}

// take removes and returns the head of src, as reported by peek with no
// push or take in between.
//
//voyager:noalloc
func (q *eventQueue) take(src int) event {
	if src == fromFar {
		return q.far.pop()
	}
	n := q.head[src]
	node := &q.nodes[n]
	ev := node.ev
	if node.next == 0 {
		q.occ[src>>6] &^= uint64(1) << (src & 63)
	} else {
		q.head[src] = node.next
	}
	*node = wheelNode{next: q.free} // release the closure so the GC can collect it
	q.free = n
	q.nWheel--
	return ev
}
