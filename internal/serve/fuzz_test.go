package serve

import (
	"bytes"
	"testing"

	"capnn/internal/cloud"
)

// withTruncations adds each body and its first half: mutation starts
// from inside the layout and from a frame cut mid-field.
func withTruncations(f *testing.F, bodies ...[]byte) {
	for _, b := range bodies {
		f.Add(b)
		if len(b) > 2 {
			f.Add(b[:len(b)/2])
		}
	}
}

// FuzzWireRequestDecode drives arbitrary bytes through the request
// decoder — the body rpc.Server hands it once the frame's length and
// checksum held — and, when a body is accepted, on into Server.Handle.
// Nothing may panic, and nothing decoded may be larger than the body
// could have described: a length field past the remaining bytes is an
// error, not a make. The checked-in corpus under testdata/fuzz
// (regenerated by scripts/genfuzzcorpus) seeds it with well-formed
// requests of several ops.
func FuzzWireRequestDecode(f *testing.F) {
	withTruncations(f,
		(&WireRequest{}).AppendWire(nil),
		(&WireRequest{Version: 1, Variant: "W", Classes: []int{0, 1}, Weights: []float64{3, 1}, Input: make([]float64, 36)}).AppendWire(nil),
		(&WireRequest{Version: cloud.ProtocolVersion, Variant: "M", Classes: []int{2}, Input: []float64{0.5}}).AppendWire(nil),
	)
	f.Add([]byte{})
	f.Add([]byte{0xff, 0xff, 0xff, 0xff})
	srv := NewServerWith(getFixture(f).sys, Config{Workers: 1})
	f.Cleanup(func() { _ = srv.Close() })

	f.Fuzz(func(t *testing.T, data []byte) {
		var req WireRequest
		if err := req.DecodeWire(data); err != nil {
			return
		}
		// A class costs a byte on the wire and a word in memory; nothing
		// else grows.
		if held := 8*(cap(req.Classes)+cap(req.Weights)+cap(req.Input)) + cap(req.Payload); held > 8*len(data) {
			t.Fatalf("a %d-byte body decoded into %d bytes of slices", len(data), held)
		}
		if resp := srv.Handle(req); resp == nil {
			t.Fatal("Handle returned no response")
		}
	})
}

// FuzzWireResponseDecode is the client's side: a response body from an
// untrusted or fault-corrupted peer never panics the decoder and never
// decodes into more than it could have described.
func FuzzWireResponseDecode(f *testing.F) {
	withTruncations(f,
		(&WireResponse{}).AppendWire(nil),
		(&WireResponse{Version: cloud.ProtocolVersion, Code: cloud.CodeOK, Logits: []float64{0.1, 0.7, 0.2}, Class: 1, CacheHit: true}).AppendWire(nil),
		badRequest("unknown variant").AppendWire(nil),
	)
	f.Fuzz(func(t *testing.T, data []byte) {
		var resp WireResponse
		if err := resp.DecodeWire(data); err != nil {
			return
		}
		if held := 8*cap(resp.Logits) + cap(resp.Payload) + len(resp.Err); held > 8*len(data) {
			t.Fatalf("a %d-byte body decoded into %d bytes", len(data), held)
		}
	})
}

// FuzzRingUpdatePayload: OpRingUpdate's Payload in the RingUpdate
// layout, through to the installed handler's caller. A checksum vouches
// for the bytes, not for their author: a value that decodes must still
// be refused by validation, never indexed by.
func FuzzRingUpdatePayload(f *testing.F) {
	seed := &RingUpdate{Epoch: 7, Seed: 1, VirtualNodes: 64, Replication: 2, Members: []string{"a:1", "b:2"}, You: "a:1"}
	withTruncations(f, seed.AppendWire(nil))
	srv := NewServerWith(getFixture(f).sys, Config{Workers: 1})
	f.Cleanup(func() { _ = srv.Close() })
	srv.SetRingUpdate(func(RingUpdate) error { return nil })
	f.Fuzz(func(t *testing.T, data []byte) {
		if resp := srv.Handle(WireRequest{Op: OpRingUpdate, Payload: data}); resp.Code != cloud.CodeOK && resp.Code != cloud.CodeBadRequest {
			t.Fatalf("ring update answered [%s] %s", resp.Code, resp.Err)
		}
	})
}

// FuzzMaskPayload is a device's side of OpPersonalize: a payload from an
// untrusted or fault-corrupted shard never panics the decoder, and any
// payload that decodes re-encodes byte for byte — the layout has one
// spelling for each set of masks, so what a device accepts is exactly
// what it was sent.
func FuzzMaskPayload(f *testing.F) {
	withTruncations(f,
		(&MaskPayload{}).AppendWire(nil),
		(&MaskPayload{Base: 0xdeadbeef, Masks: map[int][]bool{2: {true, false, true}, 3: make([]bool, 17)}}).AppendWire(nil),
	)
	f.Fuzz(func(t *testing.T, data []byte) {
		var p MaskPayload
		if err := p.DecodeWire(data); err != nil {
			return
		}
		if again := p.AppendWire(nil); !bytes.Equal(again, data) {
			t.Fatalf("%x decoded to %+v, which encodes as %x", data, p, again)
		}
	})
}
