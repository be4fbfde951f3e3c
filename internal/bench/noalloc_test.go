package bench

import (
	"testing"

	"startvoyager/internal/core"
	"startvoyager/internal/sim"
)

// BenchmarkNodeBasicMsg is the whole-node benchmark (node/basic-msg): a
// two-node machine pushing Basic messages through the full aP → CTRL →
// fabric → CTRL → aP pipeline (the Ext E resident-queue path), one delivered
// message per op. Run it with `go test -bench NodeBasicMsg ./internal/bench/`.
func BenchmarkNodeBasicMsg(b *testing.B) {
	m := core.NewMachine(2)
	n := b.N
	buf := []byte{1, 2, 3, 4}
	m.Go(1, "src", func(p *sim.Proc, a *core.API) {
		for i := 0; i < n; i++ {
			a.SendBasic(p, 0, buf)
		}
	})
	got := 0
	m.Go(0, "dst", func(p *sim.Proc, a *core.API) {
		for got < n {
			if _, _, ok := a.TryRecvBasic(p); ok {
				got++
			}
		}
	})
	b.ReportAllocs()
	b.ResetTimer()
	m.Run()
}

// TestBasicMsgChainAllocs pins the allocation budget of the Basic message
// send/recv chain — the path the //voyager:noalloc annotations and the
// noalloc analyzer guard. BenchmarkNodeBasicMsg pushes one delivered
// message per op through aP compose → CTRL launch → fabric → CTRL landing →
// aP consume; at the growth seed it cost 112 allocs/op. The pooled records
// (bus ops, cache transactions, ctrl launch/land state, core slot and word
// buffers) brought it down to 14, and the fabric's recycled journey records
// and link callbacks to 4. What remains is data that leaves the path with
// the message: the Packet, its encoded wire frame (and that slice's
// interface box), and the payload copy handed to the receiver. The budget
// below leaves a little headroom over the measured value so incidental
// runtime jitter does not flake, while still catching any closure or
// buffer that slips back onto the path.
func TestBasicMsgChainAllocs(t *testing.T) {
	if testing.Short() {
		t.Skip("benchmark-backed; skipped in -short")
	}
	r := testing.Benchmark(BenchmarkNodeBasicMsg)
	const maxAllocs = 6  // measured: 4 allocs/op
	const maxBytes = 384 // measured: 120 B/op
	if got := r.AllocsPerOp(); got > maxAllocs {
		t.Errorf("node/basic-msg allocates %d/op, budget is %d (seed was 112)", got, maxAllocs)
	}
	if got := r.AllocedBytesPerOp(); got > maxBytes {
		t.Errorf("node/basic-msg allocates %d B/op, budget is %d (seed was 5617)", got, maxBytes)
	}
	t.Logf("node/basic-msg: %d allocs/op, %d B/op over %d ops",
		r.AllocsPerOp(), r.AllocedBytesPerOp(), r.N)
}
