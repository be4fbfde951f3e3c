package main

import (
	"math"
	"syscall"
)

// A shared host's speed drifts: on the 2-vCPU VM the benchmark was sized
// on, neighbours' load made every child of a run slower by up to half for
// seconds at a time, in CPU time as much as in wall time, so the medians of
// 25-second runs spread by 10-20% over ten seeds. The parent therefore
// times a calibration kernel just before each child and normalizes the
// child's host times by it. Of the kernels tried (pure hashing, a pointer
// chase over 64 MiB, an event queue, faulting in fresh memory, and their
// pairs), the geometric mean of the last two tracked the simulator best:
// normalized by it, the spread of run medians fell to between a half and a
// tenth. The kernels contain no code of the repository, so no change to the
// simulator can move them.

// refCalibS is the calibration kernel's time at the reference host speed
// that normalized timings are expressed in.
const refCalibS = 0.050

const (
	calibObjs   = 1 << 19 // objects in the pool: 32 MiB
	calibQueue  = 1 << 16 // pending events
	calibEvents = 300000  // events one calibration pops and pushes
	calibFresh  = 64 << 20
)

type calibObj struct {
	next *calibObj
	n    uint64
	_    [6]uint64
}

type calibEvent struct {
	at  uint64
	obj *calibObj
}

// calibrator holds the kernels' state, built once per run so that the
// event queue's pool is warm and already faulted in.
type calibrator struct {
	rng    *splitmix
	pool   []*calibObj
	queue  []calibEvent // binary min-heap on at
	counts [4096]uint64
}

func newCalibrator() *calibrator {
	c := &calibrator{rng: newStream(0, 0), pool: make([]*calibObj, calibObjs)}
	for i := range c.pool {
		c.pool[i] = &calibObj{}
	}
	for _, o := range c.pool {
		o.next = c.pool[c.rng.next()%calibObjs]
	}
	for range calibQueue {
		c.push(calibEvent{c.rng.next() % 1000000, c.pool[c.rng.next()%calibObjs]})
	}
	return c
}

// time returns the calibration kernel's seconds on the host right now: the
// geometric mean of the event-queue kernel and the fresh-memory kernel.
func (c *calibrator) time() float64 {
	return math.Sqrt(c.events() * freshMemory())
}

// events pops and pushes events the way a discrete-event engine does, each
// one following a pointer into the pool and bumping a counter.
func (c *calibrator) events() float64 {
	t0 := wallClock()
	for range calibEvents {
		e := c.pop()
		o := e.obj.next
		o.n += e.at
		c.counts[o.n%uint64(len(c.counts))]++
		c.push(calibEvent{e.at + c.rng.next()%1000, o})
	}
	return seconds(t0, wallClock())
}

func (c *calibrator) push(e calibEvent) {
	q := append(c.queue, e)
	for i := len(q) - 1; i > 0; {
		p := (i - 1) / 2
		if q[p].at <= q[i].at {
			break
		}
		q[p], q[i] = q[i], q[p]
		i = p
	}
	c.queue = q
}

func (c *calibrator) pop() calibEvent {
	q := c.queue
	top, n := q[0], len(q)-1
	q[0] = q[n]
	q = q[:n]
	for i := 0; ; {
		l := 2*i + 1
		if l >= n {
			break
		}
		if l+1 < n && q[l+1].at < q[l].at {
			l++
		}
		if q[i].at <= q[l].at {
			break
		}
		q[i], q[l] = q[l], q[i]
		i = l
	}
	c.queue = q
	return top
}

// freshMemory maps anonymous memory, writes one byte per page and unmaps
// it: the page-fault cost every child pays to grow its heap.
func freshMemory() float64 {
	t0 := wallClock()
	b, err := syscall.Mmap(-1, 0, calibFresh, syscall.PROT_READ|syscall.PROT_WRITE,
		syscall.MAP_ANON|syscall.MAP_PRIVATE)
	if err != nil {
		panic(err)
	}
	page := syscall.Getpagesize()
	for i := 0; i < len(b); i += page {
		b[i] = 1
	}
	if err := syscall.Munmap(b); err != nil {
		panic(err)
	}
	return seconds(t0, wallClock())
}
