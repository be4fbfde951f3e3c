// Package sram models the NIU's single-ported clsSRAM, which holds
// cache-line state bits for S-COMA memory. The two dual-ported buffer banks
// (aSRAM on the aP bus side, sSRAM on the sP side, both also ported to the
// IBus) are plain mem.Store byte memories.
//
// Port contention is not modeled in either: the IBus (a sim.Resource owned by
// CTRL) is the serialization point for all NIU-internal data movement, and
// the 60X buses serialize processor-side accesses, matching the dual-ported
// parts' ability to serve both sides concurrently.
package sram

import "fmt"

// LineState is a 4-bit S-COMA cache-line state stored in clsSRAM. The NIU
// interprets states through the aBIU's action table, so the encoding itself
// carries no fixed meaning to the hardware — these named values are the
// convention used by the default S-COMA firmware protocol.
type LineState uint8

// Default S-COMA state encoding.
const (
	// CLInvalid: line not present locally; reads and writes must stall.
	CLInvalid LineState = 0
	// CLPending: a fill has been requested; stall without re-notifying sP.
	CLPending LineState = 1
	// CLReadOnly: local copy valid for reads; writes must upgrade.
	CLReadOnly LineState = 2
	// CLReadWrite: local copy exclusive; all accesses proceed.
	CLReadWrite LineState = 3
)

// String names the default states.
func (s LineState) String() string {
	switch s {
	case CLInvalid:
		return "inv"
	case CLPending:
		return "pend"
	case CLReadOnly:
		return "ro"
	case CLReadWrite:
		return "rw"
	default:
		return fmt.Sprintf("state%d", uint8(s))
	}
}

// Cls is the clsSRAM: one 4-bit state per 32-byte cache line of the S-COMA
// region. It is read combinationally by the aBIU on every aP bus operation
// and written under sP (or, in approach 5, block-unit) control. The state
// array materializes on the first Set: a node that never touches S-COMA pays
// nothing, and reads before then return CLInvalid — the zero value a dense
// array would hold anyway.
type Cls struct {
	lines  int
	states []LineState // nil until first Set
}

// NewCls sizes the state memory for the given number of cache lines.
func NewCls(lines int) *Cls {
	return &Cls{lines: lines}
}

// Lines returns the number of tracked lines.
func (c *Cls) Lines() int { return c.lines }

// Get returns the state for line idx.
func (c *Cls) Get(idx int) LineState {
	c.check(idx)
	if c.states == nil {
		return CLInvalid
	}
	return c.states[idx]
}

// Set stores the state for line idx.
func (c *Cls) Set(idx int, st LineState) {
	c.check(idx)
	if st > 15 {
		panic(fmt.Sprintf("sram: clsSRAM state %d exceeds 4 bits", st))
	}
	if c.states == nil {
		if st == CLInvalid {
			return
		}
		c.states = make([]LineState, c.lines)
	}
	c.states[idx] = st
}

// SetRange stores st for lines [from, to).
func (c *Cls) SetRange(from, to int, st LineState) {
	for i := from; i < to; i++ {
		c.Set(i, st)
	}
}

func (c *Cls) check(idx int) {
	if idx < 0 || idx >= c.lines {
		panic(fmt.Sprintf("sram: clsSRAM line %d out of range %d", idx, c.lines))
	}
}
