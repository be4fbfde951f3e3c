package bench

import (
	"bytes"
	"strings"
	"testing"
)

// TestDiffHeadline pins the bench-diff gate's 10% rule and its failure
// modes against a one-entry baseline of 1000 ns.
func TestDiffHeadline(t *testing.T) {
	var doc bytes.Buffer
	if err := WriteHeadline(&doc, map[string]int64{"basic_e2e_mean_ns": 1000}); err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name      string
		baseline  []byte
		latencies map[string]int64
		pass      bool
		mention   string
	}{
		{"unchanged", doc.Bytes(), map[string]int64{"basic_e2e_mean_ns": 1000}, true, "ok"},
		{"faster", doc.Bytes(), map[string]int64{"basic_e2e_mean_ns": 900}, true, "(-10.0%) ok"},
		{"exactly +10%", doc.Bytes(), map[string]int64{"basic_e2e_mean_ns": 1100}, true, "(+10.0%) ok"},
		{"+10% and 1ns", doc.Bytes(), map[string]int64{"basic_e2e_mean_ns": 1101}, false, "REGRESSED"},
		{"missing key", doc.Bytes(), map[string]int64{"dma_e2e_mean_ns": 1000}, false, "MISSING"},
		{"garbage baseline", []byte("not json"), map[string]int64{"basic_e2e_mean_ns": 1000}, false, "bad baseline"},
	}
	for _, c := range cases {
		var out bytes.Buffer
		if got := DiffHeadline(c.baseline, c.latencies, &out); got != c.pass {
			t.Errorf("%s: DiffHeadline = %v, want %v\n%s", c.name, got, c.pass, out.String())
		}
		if !strings.Contains(out.String(), c.mention) {
			t.Errorf("%s: report does not mention %q:\n%s", c.name, c.mention, out.String())
		}
	}
}
