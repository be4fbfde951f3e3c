package mem

import (
	"bytes"
	"testing"

	"startvoyager/internal/bus"
	"startvoyager/internal/sim"
)

type master struct{ name string }

func (m *master) DeviceName() string                  { return m.name }
func (m *master) SnoopBus(*bus.Transaction) bus.Snoop { return bus.Snoop{} }

func TestDRAMReadWrite(t *testing.T) {
	eng := sim.NewEngine()
	b := bus.New(eng, "bus", bus.DefaultConfig())
	d := New(bus.Range{Base: 0, Size: 1 << 16}, 60)
	m := &master{"cpu"}
	b.Attach(d)
	b.Attach(m)

	want := []byte{0xde, 0xad, 0xbe, 0xef}
	wr := make([]byte, bus.LineSize)
	copy(wr, want)
	b.Issue(&bus.Transaction{Kind: bus.WriteLine, Addr: 96, Data: wr, Master: m}, func() {})
	eng.Run()

	got := make([]byte, bus.LineSize)
	b.Issue(&bus.Transaction{Kind: bus.ReadLine, Addr: 96, Data: got, Master: m}, func() {})
	eng.Run()
	if !bytes.Equal(got[:4], want) {
		t.Fatalf("got %x", got[:4])
	}
	r, w := d.Accesses()
	if r != 1 || w != 1 {
		t.Fatalf("accesses = %d/%d", r, w)
	}
}

func TestDRAMIgnoresOutOfRangeAndKill(t *testing.T) {
	d := New(bus.Range{Base: 0x1000, Size: 0x1000}, 60)
	if s := d.SnoopBus(&bus.Transaction{Kind: bus.ReadLine, Addr: 0}); s.Action != bus.OK {
		t.Fatal("claimed out-of-range address")
	}
	if s := d.SnoopBus(&bus.Transaction{Kind: bus.Kill, Addr: 0x1000}); s.Action != bus.OK {
		t.Fatal("claimed a Kill")
	}
}

func TestPeekPoke(t *testing.T) {
	d := New(bus.Range{Base: 0x8000, Size: 0x1000}, 60)
	d.Poke(0x8100, []byte{1, 2, 3})
	got := make([]byte, 3)
	d.Peek(0x8100, got)
	if !bytes.Equal(got, []byte{1, 2, 3}) {
		t.Fatalf("got %v", got)
	}
}

func TestPeekOutOfRangePanics(t *testing.T) {
	d := New(bus.Range{Base: 0, Size: 64}, 60)
	defer func() {
		if recover() == nil {
			t.Fatal("no panic")
		}
	}()
	d.Peek(60, make([]byte, 8)) // spills past the end
}

func TestDRAMServesAliasAndClampsToSize(t *testing.T) {
	d := New(bus.Range{Base: 0x10000, Size: 0x1000}, 60)
	d.AddAlias(bus.Range{Base: 0x80000, Size: 0x100}, 0xf00)
	d.Poke(0x10f00, []byte{5, 6, 7, 8})
	got := make([]byte, 4)
	tx := &bus.Transaction{Kind: bus.ReadWord, Addr: 0x80000, Data: got}
	d.SnoopBus(tx).Serve(tx)
	if !bytes.Equal(got, []byte{5, 6, 7, 8}) {
		t.Fatalf("alias read got %v", got)
	}
	// A word that runs past the end is served up to the last byte only.
	d.Poke(0x10ffc, []byte{1, 2, 3, 4})
	wide := []byte{9, 9, 9, 9, 9, 9, 9, 9}
	tx = &bus.Transaction{Kind: bus.ReadWord, Addr: 0x10ffc, Data: wide}
	d.SnoopBus(tx).Serve(tx)
	if !bytes.Equal(wide, []byte{1, 2, 3, 4, 9, 9, 9, 9}) {
		t.Fatalf("clamped read got %v", wide)
	}
}

// TestDRAMSnoopZeroAllocs pins the prebound serve path: claiming and serving
// a transaction to a written page allocates nothing.
func TestDRAMSnoopZeroAllocs(t *testing.T) {
	d := New(bus.Range{Base: 0, Size: 1 << 20}, 60)
	line := make([]byte, bus.LineSize)
	wr := &bus.Transaction{Kind: bus.WriteLine, Addr: 0x100, Data: line}
	rd := &bus.Transaction{Kind: bus.ReadLine, Addr: 0x100, Data: line}
	d.SnoopBus(wr).Serve(wr)
	if n := testing.AllocsPerRun(100, func() {
		d.SnoopBus(wr).Serve(wr)
		d.SnoopBus(rd).Serve(rd)
	}); n != 0 {
		t.Fatalf("DRAM snoop+serve: %v allocs/run, want 0", n)
	}
}
