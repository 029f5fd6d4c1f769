package nn

import (
	"syscall"
	"testing"
	"unsafe"
)

func init() { allocExact = guardedFloats }

// guardedFloats maps n float64s so that the last one ends where an
// unreadable, unwritable page begins.
func guardedFloats(t testing.TB, n int) []float64 {
	if n == 0 {
		return nil
	}
	page := syscall.Getpagesize()
	size := (n*8 + page - 1) / page * page
	mem, err := syscall.Mmap(-1, 0, size+page, syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_ANON|syscall.MAP_PRIVATE)
	if err != nil {
		t.Fatalf("mmap: %v", err)
	}
	t.Cleanup(func() { _ = syscall.Munmap(mem) }) // test memory: nothing to do if the unmap fails
	if err := syscall.Mprotect(mem[size:], syscall.PROT_NONE); err != nil {
		t.Fatalf("mprotect: %v", err)
	}
	return unsafe.Slice((*float64)(unsafe.Pointer(&mem[size-n*8])), n)
}
