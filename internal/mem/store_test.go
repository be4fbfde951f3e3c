package mem

import (
	"bytes"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
)

func TestStoreReadWrite(t *testing.T) {
	s := NewStore("aSRAM", 1024)
	if s.Size() != 1024 {
		t.Fatal("size wrong")
	}
	s.Write(100, []byte{1, 2, 3})
	buf := make([]byte, 3)
	s.Read(100, buf)
	if !bytes.Equal(buf, []byte{1, 2, 3}) {
		t.Fatalf("got %v", buf)
	}
	if got := s.Append([]byte{7}, 101, 2); !bytes.Equal(got, []byte{7, 2, 3}) {
		t.Fatalf("Append got %v", got)
	}
	if got := s.Append(nil, 0, 0); got != nil {
		t.Fatalf("zero-length Append onto nil = %v, want nil", got)
	}
}

func TestStoreBoundsPanics(t *testing.T) {
	s := NewStore("sSRAM7", 64)
	cases := []func(){
		func() { s.Read(60, make([]byte, 8)) },
		func() { s.Write(64, []byte{1}) },
		func() { s.Append(nil, 0, 65) },
		func() { s.Append(nil, 0, -1) },
		func() { s.Read(1<<32-1, make([]byte, 2)) },
	}
	for i, fn := range cases {
		func() {
			defer func() {
				r := recover()
				if r == nil {
					t.Errorf("case %d: no panic", i)
				} else if msg, _ := r.(string); !strings.Contains(msg, "sSRAM7") {
					t.Errorf("case %d: panic %q does not name the bank", i, r)
				}
			}()
			fn()
		}()
	}
	// Accesses ending exactly at the capacity are in range.
	s.Write(63, []byte{9})
	s.Read(64, nil)
	if got := s.Append(nil, 56, 8); got[7] != 9 {
		t.Fatalf("last byte = %d", got[7])
	}
}

// Property: writes land exactly where addressed (no smearing).
func TestStoreWriteIsolationProperty(t *testing.T) {
	f := func(off uint16, val byte) bool {
		s := NewStore("p", 1<<16)
		s.Write(uint32(off), []byte{val})
		got := make([]byte, 1<<16)
		s.Read(0, got)
		for i, b := range got {
			want := byte(0)
			if i == int(off) {
				want = val
			}
			if b != want {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

func TestStorePageSize(t *testing.T) {
	for _, tc := range []struct{ size, page int }{
		{16 << 20, 64 << 10}, // default DRAM
		{128 << 10, 512},     // default aSRAM/sSRAM
		{64 << 10, 256},
		{100 << 10, 512}, // capacity/256 rounds up to a power of two
		{64, 1},
	} {
		if got := 1 << NewStore("x", tc.size).shift; got != tc.page {
			t.Errorf("size %d: page %d, want %d", tc.size, got, tc.page)
		}
	}
}

// TestStoreFootprint pins the lazy layout: a write high in a bank allocates
// only the page it lands on, not the zero prefix below it.
func TestStoreFootprint(t *testing.T) {
	s := NewStore("sSRAM", 128<<10)
	s.Write(0x8100, []byte{1, 2, 3, 4, 5, 6, 7, 8})
	var pages, held int
	for _, pg := range s.pages {
		if pg != nil {
			pages++
			held += len(pg)
		}
	}
	if pages != 1 || held != 512 {
		t.Fatalf("8-byte write at 0x8100 allocated %d pages (%d B), want 1 page of 512 B", pages, held)
	}
	if len(s.pages) != 0x8100/512+1 {
		t.Fatalf("directory has %d entries, want %d", len(s.pages), 0x8100/512+1)
	}
	// Reads, including Append, allocate nothing.
	s.Read(0x1_0000, make([]byte, 4096))
	_ = s.Append(nil, 0x1_8000, 1024)
	if len(s.pages) != 0x8100/512+1 {
		t.Fatalf("reads grew the directory to %d entries", len(s.pages))
	}
}

// TestStoreDifferential drives random Read/Write/Append calls, many crossing
// page boundaries, against a dense zero-initialized reference array.
func TestStoreDifferential(t *testing.T) {
	for _, size := range []int{128 << 10, 100 << 10, 4096, 777} {
		for seed := int64(1); seed <= 3; seed++ {
			rng := rand.New(rand.NewSource(seed))
			s := NewStore("d", size)
			ref := make([]byte, size)
			page := 1 << s.shift
			span := func() (uint32, int) {
				var n int
				switch rng.Intn(4) {
				case 0:
					n = 0
				case 1:
					n = 1 + rng.Intn(8)
				case 2:
					n = rng.Intn(3 * page)
				default:
					n = rng.Intn(size + 1)
				}
				n = min(n, size)
				var off int
				switch rng.Intn(4) {
				case 0: // straddle a page boundary
					off = rng.Intn(size/page+1)*page - n/2
				case 1: // end at the last byte
					off = size - n
				default:
					off = rng.Intn(size - n + 1)
				}
				off = max(0, min(off, size-n))
				return uint32(off), n
			}
			for i := 0; i < 2000; i++ {
				off, n := span()
				switch rng.Intn(3) {
				case 0:
					data := make([]byte, n)
					rng.Read(data)
					s.Write(off, data)
					copy(ref[off:], data)
				case 1:
					got := make([]byte, n)
					rng.Read(got) // stale contents must be overwritten
					s.Read(off, got)
					if !bytes.Equal(got, ref[off:int(off)+n]) {
						t.Fatalf("size %d seed %d op %d: Read(%#x, %d) differs", size, seed, i, off, n)
					}
				default:
					prefix := []byte{0xaa, 0xbb}
					got := s.Append(prefix[:rng.Intn(3)], off, n)
					if !bytes.Equal(got[len(got)-n:], ref[off:int(off)+n]) {
						t.Fatalf("size %d seed %d op %d: Append(%#x, %d) differs", size, seed, i, off, n)
					}
				}
			}
			whole := make([]byte, size)
			s.Read(0, whole)
			if !bytes.Equal(whole, ref) {
				t.Fatalf("size %d seed %d: final contents differ", size, seed)
			}
		}
	}
}

// TestStoreWarmZeroAllocs pins the noalloc rule: once a page exists, Write,
// Read and Append into existing capacity do not allocate.
func TestStoreWarmZeroAllocs(t *testing.T) {
	s := NewStore("aSRAM", 128<<10)
	slot := make([]byte, 128)
	s.Write(0x8100, slot) // materialize the pages
	s.Write(0x1f0, slot)  // a slot straddling a page boundary
	dst := make([]byte, 0, 256)
	if n := testing.AllocsPerRun(100, func() {
		s.Write(0x8100, slot)
		s.Write(0x1f0, slot)
		s.Read(0x8100, slot)
		s.Read(0x1f0, slot)
		s.Read(0x10000, slot) // unwritten page
		dst = s.Append(dst[:0], 0x1f0, 200)
	}); n != 0 {
		t.Fatalf("warm store ops: %v allocs/run, want 0", n)
	}
}
