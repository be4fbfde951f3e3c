package bench

import (
	"bytes"
	"testing"

	"startvoyager/internal/cluster"
	"startvoyager/internal/core"
	"startvoyager/internal/fault"
)

// runAllToOne runs w on a nodes-node machine under the given fault plan
// ("" for none).
func runAllToOne(t *testing.T, w AllToOne, nodes int, plan string) (AllToOneResult, Observed) {
	t.Helper()
	cfg := cluster.DefaultConfig(nodes)
	if plan != "" {
		p, err := fault.ParsePlan(plan)
		if err != nil {
			t.Fatalf("ParsePlan(%q): %v", plan, err)
		}
		cfg.Faults = p
	}
	var r AllToOneResult
	obs := Observe(cfg, 0, nil, nil, func(m *core.Machine) { r = w.Run(m) })
	return r, obs
}

func TestAllToOneDeliversEveryMechanism(t *testing.T) {
	const nodes, count = 4, 10
	for _, mech := range []string{"basic", "tagon", "express", "dma", "reliable"} {
		r, _ := runAllToOne(t, AllToOne{Mech: mech, Count: count, Size: 64}, nodes, "")
		if want := (nodes - 1) * count; r.Received != want || r.Failed != 0 {
			t.Errorf("%s: received=%d failed=%d, want %d and 0", mech, r.Received, r.Failed, want)
		}
	}
}

func TestAllToOneReliableUnderDrops(t *testing.T) {
	const nodes, count = 4, 30
	w := AllToOne{Mech: "reliable", Count: count, Size: 64}
	r, _ := runAllToOne(t, w, nodes, "seed=7,drop=0.05")
	if want := (nodes - 1) * count; r.Received != want || r.Failed != 0 {
		t.Errorf("received=%d failed=%d, want %d and 0", r.Received, r.Failed, want)
	}
	if r.Retransmits == 0 {
		t.Error("a 5% drop plan caused no retransmits")
	}
}

// TestAllToOneDeterministic: two same-seed runs end at the same simulated
// time with byte-identical metrics.
func TestAllToOneDeterministic(t *testing.T) {
	render := func() (AllToOneResult, Observed, []byte) {
		r, obs := runAllToOne(t, AllToOne{Mech: "reliable", Count: 20, Size: 64}, 4, "seed=7,drop=0.05")
		var buf bytes.Buffer
		if err := obs.Metrics.WriteJSON(&buf, obs.SimTime); err != nil {
			t.Fatalf("WriteJSON: %v", err)
		}
		return r, obs, buf.Bytes()
	}
	r1, o1, m1 := render()
	r2, o2, m2 := render()
	if r1 != r2 {
		t.Errorf("counters differ across identical runs: %+v vs %+v", r1, r2)
	}
	if o1.SimTime != o2.SimTime {
		t.Errorf("end times differ across identical runs: %v vs %v", o1.SimTime, o2.SimTime)
	}
	if !bytes.Equal(m1, m2) {
		t.Error("metrics differ across identical runs")
	}
}

func TestAllToOneCheck(t *testing.T) {
	if err := (AllToOne{Mech: "bogus"}).Check(); err == nil {
		t.Error("unknown mechanism passed Check")
	}
}
