package mem

import (
	"fmt"
	"slices"
)

// Store is a byte-addressed memory of fixed capacity whose untouched bytes
// read as zero and cost no host memory. It backs a node's DRAM and the NIU's
// dual-ported aSRAM and sSRAM banks.
//
// Storage is paged: a page is allocated on its first write, and the page
// directory grows only as far as the highest page written. The page size is
// the capacity / 256 rounded up to a power of two, so a 16 MB DRAM has 64 KB
// pages and a 128 KB bank has 512 B pages. Once a page exists, Read, Write
// and Append into existing capacity do not allocate.
type Store struct {
	name  string
	size  int
	shift uint     // log2 of the page size
	pages [][]byte // directory up to the highest page written; nil pages read as zeros
}

// NewStore creates a zero-filled store of size bytes. name labels bounds
// panics ("aSRAM3", "dram").
func NewStore(name string, size int) *Store {
	s := &Store{name: name, size: size}
	for size > 256<<s.shift {
		s.shift++
	}
	return s
}

// Size returns the capacity in bytes.
func (s *Store) Size() int { return s.size }

// Read copies len(buf) bytes at off into buf.
//
//voyager:noalloc
func (s *Store) Read(off uint32, buf []byte) {
	s.check(off, len(buf))
	for len(buf) > 0 {
		pi, po := s.locate(off)
		var n int
		if pi < len(s.pages) && s.pages[pi] != nil {
			n = copy(buf, s.pages[pi][po:])
		} else {
			n = min(len(buf), 1<<s.shift-po)
			clear(buf[:n])
		}
		off += uint32(n)
		buf = buf[n:]
	}
}

// Write copies data into the store at off, allocating the pages it first
// touches.
//
//voyager:noalloc
func (s *Store) Write(off uint32, data []byte) {
	s.check(off, len(data))
	for len(data) > 0 {
		pi, po := s.locate(off)
		if pi >= len(s.pages) {
			s.pages = append(s.pages, make([][]byte, pi+1-len(s.pages))...) //voyager:alloc-ok(directory grows to the highest page written)
		}
		if s.pages[pi] == nil {
			s.pages[pi] = make([]byte, 1<<s.shift) //voyager:alloc-ok(a page is allocated on its first write)
		}
		n := copy(s.pages[pi][po:], data)
		off += uint32(n)
		data = data[n:]
	}
}

// Append appends the n bytes at off to dst and returns the extended slice.
//
//voyager:noalloc
func (s *Store) Append(dst []byte, off uint32, n int) []byte {
	s.check(off, n)
	l := len(dst)
	dst = slices.Grow(dst, n)[:l+n] //voyager:alloc-ok(grows dst only beyond its capacity)
	s.Read(off, dst[l:])
	return dst
}

// locate splits off into a page index and an offset within that page.
//
//voyager:noalloc
func (s *Store) locate(off uint32) (page, within int) {
	return int(off >> s.shift), int(off & (1<<s.shift - 1))
}

//voyager:noalloc
func (s *Store) check(off uint32, n int) {
	if n < 0 || uint64(off)+uint64(n) > uint64(s.size) {
		panic(fmt.Sprintf("mem: %s access %#x+%d beyond size %#x", s.name, off, n, s.size)) //voyager:alloc-ok(panic path)
	}
}
