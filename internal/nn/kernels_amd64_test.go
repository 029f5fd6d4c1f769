package nn

import "testing"

// TestISALevel pins the dispatch ladder's decision: each rung needs its
// instructions (CPUID) and the OS saving the registers they write
// (XCR0). A CPU with AVX512F under an OS that saves only YMM state must
// run the AVX2 tiles, not fault in the ZMM one.
func TestISALevel(t *testing.T) {
	const (
		ecxOK   = 1<<27 | 1<<28 // OSXSAVE | AVX
		ebxAVX2 = 1 << 5
		ebxBoth = 1<<5 | 1<<16 // AVX2 | AVX512F
		xcrYMM  = 0x07         // x87 | SSE | AVX
		xcrZMM  = 0xE7         // … | opmask | ZMM_Hi256 | Hi16_ZMM
	)
	for _, c := range []struct {
		name             string
		ecx1, ebx7, xcr0 uint32
		want             int
	}{
		{"AVX-512 with ZMM state saved", ecxOK, ebxBoth, xcrZMM, isaAVX512},
		{"AVX-512 with only YMM state saved", ecxOK, ebxBoth, xcrYMM, isaAVX2},
		{"AVX-512 without opmask state", ecxOK, ebxBoth, xcrZMM &^ 0x20, isaAVX2},
		{"AVX-512 without Hi16_ZMM state", ecxOK, ebxBoth, xcrZMM &^ 0x80, isaAVX2},
		{"AVX2, no AVX512F", ecxOK, ebxAVX2, xcrZMM, isaAVX2},
		{"AVX512F without AVX2", ecxOK, 1 << 16, xcrZMM, isaGo},
		{"no YMM state saved", ecxOK, ebxBoth, 0x03, isaGo},
		{"no OSXSAVE", 1 << 28, ebxBoth, 0, isaGo},
		{"no AVX", 1 << 27, ebxBoth, xcrZMM, isaGo},
		{"leaf 7 absent", ecxOK, 0, xcrZMM, isaGo},
	} {
		if got := isaLevel(c.ecx1, c.ebx7, c.xcr0); got != c.want {
			t.Errorf("%s: isaLevel(%#x, %#x, %#x) = %d, want %d", c.name, c.ecx1, c.ebx7, c.xcr0, got, c.want)
		}
	}
	t.Logf("this CPU: rung %d (useAVX2 %v, useAVX512 %v)", hostISA(), hostAVX2, hostAVX512)
}
