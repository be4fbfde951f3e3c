package sram

import "testing"

func TestCls(t *testing.T) {
	c := NewCls(8)
	if c.Lines() != 8 {
		t.Fatal("lines wrong")
	}
	if c.Get(0) != CLInvalid {
		t.Fatal("initial state not invalid")
	}
	c.Set(3, CLReadWrite)
	if c.Get(3) != CLReadWrite {
		t.Fatal("set/get failed")
	}
	c.SetRange(2, 6, CLReadOnly)
	for i := 2; i < 6; i++ {
		if c.Get(i) != CLReadOnly {
			t.Fatalf("line %d = %v", i, c.Get(i))
		}
	}
	if c.Get(6) != CLInvalid {
		t.Fatal("SetRange overshot")
	}
}

func TestClsPanics(t *testing.T) {
	c := NewCls(4)
	for i, fn := range []func(){
		func() { c.Get(-1) },
		func() { c.Set(4, CLInvalid) },
		func() { c.Set(0, LineState(16)) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("case %d: no panic", i)
				}
			}()
			fn()
		}()
	}
}

func TestLineStateString(t *testing.T) {
	if CLInvalid.String() != "inv" || CLReadWrite.String() != "rw" ||
		CLPending.String() != "pend" || CLReadOnly.String() != "ro" {
		t.Fatal("names wrong")
	}
	if LineState(9).String() != "state9" {
		t.Fatal("custom state name wrong")
	}
}
