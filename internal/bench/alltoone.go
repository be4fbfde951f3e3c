package bench

import (
	"fmt"

	"startvoyager/internal/core"
	"startvoyager/internal/sim"
)

// AllToOne is the all-to-one traffic pattern that voyager-run and
// voyager-path drive: every node but 0 sends Count messages (or DMA
// transfers) of Size payload bytes to node 0 by one mechanism, and node 0
// drains them.
type AllToOne struct {
	// Mech is basic, tagon, express, dma, or reliable.
	Mech        string
	Count, Size int
}

// AllToOneResult is one run's delivery and recovery counters.
type AllToOneResult struct {
	Received, Failed int
	// Summed over every node's reliable endpoint and controller.
	Retransmits, DupSuppressed, RxGarbage uint64
}

// Check reports an unknown mechanism.
func (w AllToOne) Check() error {
	switch w.Mech {
	case "basic", "tagon", "express", "dma", "reliable":
		return nil
	}
	return fmt.Errorf("unknown mechanism %q", w.Mech)
}

// Run spawns the sink and senders on m, runs it to completion, and
// collects the counters. The mechanism must pass Check. Run is a pure
// function of m's configuration and w, so independent runs may execute on
// parallel workers.
func (w AllToOne) Run(m *core.Machine) AllToOneResult {
	if err := w.Check(); err != nil {
		panic(err)
	}
	var r AllToOneResult
	senders := len(m.Nodes) - 1
	total := senders * w.Count
	sendersDone := 0
	m.Go(0, "sink", func(p *sim.Proc, a *core.API) {
		if w.Mech == "reliable" {
			// Senders may legitimately fail under a fault plan (dead peers),
			// so the sink drains with a bounded wait and leaves once every
			// sender has finished and the pipeline has gone quiet.
			for {
				if _, _, err := a.RecvReliableTimeout(p, m.RelBound()); err != nil {
					if sendersDone == senders {
						return
					}
					continue
				}
				r.Received++
			}
		}
		for r.Received < total {
			switch w.Mech {
			case "basic", "tagon":
				if _, _, ok := a.TryRecvBasic(p); ok {
					r.Received++
				}
			case "express":
				if _, _, ok := a.TryRecvExpress(p); ok {
					r.Received++
				}
			case "dma":
				a.RecvNotify(p)
				r.Received++
			}
		}
	})
	for i := 1; i <= senders; i++ {
		i := i
		m.Go(i, "src", func(p *sim.Proc, a *core.API) {
			for k := 0; k < w.Count; k++ {
				switch w.Mech {
				case "basic":
					a.SendBasic(p, 0, make([]byte, min(w.Size, core.MaxBasicPayload)))
				case "tagon":
					// Inline byte + one 16-byte aSRAM tag appended by the NIU.
					a.SendTagOn(p, 0, []byte{byte(k)}, 0x400, 16)
				case "express":
					a.SendExpress(p, 0, []byte{byte(k)})
					a.Compute(p, 2*sim.Microsecond) // pace: express drops on overflow
				case "reliable":
					if err := a.SendReliable(p, 0, make([]byte, min(w.Size, core.MaxReliablePayload))); err != nil {
						r.Failed++
					}
				case "dma":
					n := w.Size &^ 31
					if n == 0 {
						n = 32
					}
					a.DmaPush(p, 0, 0x10_0000, uint32(0x20_0000+i*0x1_0000), n, uint32(k))
				}
			}
			sendersDone++
		})
	}
	m.Run()
	for _, rel := range m.Rels {
		st := rel.Stats()
		r.Retransmits += st.Retransmits
		r.DupSuppressed += st.DupSuppressed
	}
	for _, n := range m.Nodes {
		r.RxGarbage += n.Ctrl.Stats().RxGarbage
	}
	return r
}
