//go:build !amd64

package nn

// No assembly off amd64: useAVX2 and useAVX512 are never true, so the Go
// loops in kernels.go are the only path and these are never reached.
var useAVX2, useAVX512 = false, false

func convForwardAVX2(g convGeom, pad []float64, offs []int, wd, bd, os []float64, oRow, oCh int, live []int, relu bool) bool {
	panic("nn: no AVX2 kernels on this GOARCH")
}

func reluAVX2(dst, src *float64, n int) { panic("nn: no AVX2 kernels on this GOARCH") }

func pool2x2AVX2(dst, src *float64, outH, outW, inW, dstW int) {
	panic("nn: no AVX2 kernels on this GOARCH")
}
