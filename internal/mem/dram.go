// Package mem holds a node's byte memories. Store is the paged,
// zero-preserving backing shared by DRAM and the NIU's aSRAM/sSRAM banks: a
// page materializes on its first write, and untouched bytes read as zeros,
// exactly what a dense zero-initialized array would return. This keeps a
// node's host footprint proportional to the memory its software actually
// touches, so thousand-node machines fit in RAM.
//
// DRAM models main memory behind the stock memory controller. The controller
// claims bus transactions falling in its range and services them with a fixed
// access latency. A zero-time backdoor lets workload setup and test
// verification touch memory without perturbing simulated timing.
package mem

import (
	"fmt"

	"startvoyager/internal/bus"
	"startvoyager/internal/sim"
	"startvoyager/internal/stats"
)

// DRAM is main memory plus its controller, attached to a node bus.
type DRAM struct {
	rng     bus.Range
	store   *Store
	latency sim.Time
	aliases []alias

	// Snoop serve staging: the bus serializes transactions, so the claimed
	// operation is always served before the next snoop can restage srvOff.
	srvOff  uint32
	serveFn func(*bus.Transaction)

	reads, writes uint64
}

// alias maps an extra claimed address range onto backing-array offsets
// (StarT-Voyager's S-COMA region is ordinary DRAM pages appearing at a
// second physical window).
type alias struct {
	rng    bus.Range
	toBase uint32
}

// New creates size bytes of DRAM at base with the given first-access latency.
func New(rng bus.Range, latency sim.Time) *DRAM {
	d := &DRAM{rng: rng, store: NewStore("dram", int(rng.Size)), latency: latency}
	d.serveFn = d.serve
	return d
}

// DeviceName implements bus.Device.
func (d *DRAM) DeviceName() string { return "dram" }

// Range returns the address range this controller claims.
func (d *DRAM) Range() bus.Range { return d.rng }

// AddAlias makes the controller also claim rng, serving it from the backing
// array starting at offset toBase. Used to back the S-COMA window with DRAM
// frames.
func (d *DRAM) AddAlias(rng bus.Range, toBase uint32) {
	if uint64(toBase)+uint64(rng.Size) > uint64(d.rng.Size) {
		panic(fmt.Sprintf("mem: alias %#x+%#x exceeds DRAM size %#x", toBase, rng.Size, d.rng.Size))
	}
	d.aliases = append(d.aliases, alias{rng: rng, toBase: toBase})
}

// resolve maps a claimed bus address to a backing-array offset.
//
//voyager:noalloc
func (d *DRAM) resolve(addr uint32) (uint32, bool) {
	if d.rng.Contains(addr) {
		return d.rng.Offset(addr), true
	}
	for _, a := range d.aliases {
		if a.rng.Contains(addr) {
			return a.toBase + a.rng.Offset(addr), true
		}
	}
	return 0, false
}

// SnoopBus claims transactions in range and services them from the store.
//
//voyager:noalloc
func (d *DRAM) SnoopBus(tx *bus.Transaction) bus.Snoop {
	if tx.Kind == bus.Kill {
		return bus.Snoop{}
	}
	off, ok := d.resolve(tx.Addr)
	if !ok {
		return bus.Snoop{}
	}
	d.srvOff = off
	return bus.Snoop{Action: bus.Claim, Latency: d.latency, Serve: d.serveFn}
}

// serve moves the claimed transaction's data, clamped to the modeled size.
//
//voyager:noalloc
func (d *DRAM) serve(tx *bus.Transaction) {
	data := tx.Data[:min(uint64(len(tx.Data)), uint64(d.rng.Size)-uint64(d.srvOff))]
	switch tx.Kind {
	case bus.ReadLine, bus.ReadLineX, bus.ReadWord:
		d.store.Read(d.srvOff, data)
		d.reads++
	case bus.WriteLine, bus.WriteWord:
		d.store.Write(d.srvOff, data)
		d.writes++
	}
}

// Accesses returns the number of read and write transactions served.
func (d *DRAM) Accesses() (reads, writes uint64) { return d.reads, d.writes }

// RegisterMetrics registers the controller's access counters under r.
func (d *DRAM) RegisterMetrics(r *stats.Registry) {
	r.Gauge("reads", func() int64 { return int64(d.reads) })
	r.Gauge("writes", func() int64 { return int64(d.writes) })
}

// Peek copies memory at addr into buf without consuming simulated time.
func (d *DRAM) Peek(addr uint32, buf []byte) {
	d.store.Read(d.mustOffset(addr, len(buf)), buf)
}

// Poke writes buf at addr without consuming simulated time.
func (d *DRAM) Poke(addr uint32, buf []byte) {
	d.store.Write(d.mustOffset(addr, len(buf)), buf)
}

func (d *DRAM) mustOffset(addr uint32, n int) uint32 {
	off, ok := d.resolve(addr)
	if !ok || uint64(off)+uint64(n) > uint64(d.rng.Size) {
		panic(fmt.Sprintf("mem: access %#x+%d outside DRAM %#x..%#x and aliases",
			addr, n, d.rng.Base, d.rng.End()))
	}
	return off
}
