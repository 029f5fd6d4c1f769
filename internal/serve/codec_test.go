package serve

import (
	"encoding/binary"
	"encoding/hex"
	"hash/crc32"
	"io"
	"math"
	"math/rand"
	"reflect"
	"strings"
	"testing"
	"time"

	"capnn/internal/cloud"
	"capnn/internal/rpc"
)

// frameOf wraps body as internal/rpc frames it: [u32 length][body][u32
// CRC-32C of body], little-endian.
func frameOf(body []byte) []byte {
	f := binary.LittleEndian.AppendUint32(nil, uint32(len(body)))
	f = append(f, body...)
	return binary.LittleEndian.AppendUint32(f, crc32.Checksum(body, crc32.MakeTable(crc32.Castagnoli)))
}

// bits is v's IEEE-754 bit patterns, nil staying nil: what "the same
// floats" means when NaN payloads and −0 must survive.
func bits(v []float64) []uint64 {
	if v == nil {
		return nil
	}
	out := make([]uint64, len(v))
	for i, x := range v {
		out[i] = math.Float64bits(x)
	}
	return out
}

// comparable views: the message with its float slices replaced by their
// bit patterns, so reflect.DeepEqual judges every field, nil against
// empty included, and floats to the bit.
func viewRequest(r WireRequest) any {
	v := struct {
		R              WireRequest
		Weights, Input []uint64
	}{r, bits(r.Weights), bits(r.Input)}
	v.R.Weights, v.R.Input = nil, nil
	return v
}

func viewResponse(r WireResponse) any {
	v := struct {
		R      WireResponse
		Logits []uint64
	}{r, bits(r.Logits)}
	v.R.Logits = nil
	return v
}

// The floats a codec that re-rounded, canonicalised NaNs or dropped a
// sign would get wrong.
var awkwardFloats = []float64{
	0, math.Copysign(0, -1), 1, -1.5, math.Pi,
	math.SmallestNonzeroFloat64, -math.SmallestNonzeroFloat64, 2.2250738585072009e-308, // subnormals
	math.MaxFloat64, math.Inf(1), math.Inf(-1), math.NaN(),
	math.Float64frombits(0x7ff8000000000123), math.Float64frombits(0xfff0000000000001), // NaN payloads, quiet and signalling
}

type wireGen struct{ *rand.Rand }

func (g wireGen) floats() []float64 {
	switch g.Intn(4) {
	case 0:
		return nil
	case 1:
		return []float64{}
	}
	v := make([]float64, 1+g.Intn(40))
	for i := range v {
		if g.Intn(3) == 0 {
			v[i] = awkwardFloats[g.Intn(len(awkwardFloats))]
		} else {
			v[i] = g.NormFloat64()
		}
	}
	return v
}

func (g wireGen) ints() []int {
	switch g.Intn(4) {
	case 0:
		return nil
	case 1:
		return []int{}
	}
	v := make([]int, 1+g.Intn(12))
	for i := range v {
		v[i] = []int{0, 1, -1, 63, 64, 9999, math.MaxInt64, math.MinInt64}[g.Intn(8)]
	}
	return v
}

func (g wireGen) bytes() []byte {
	switch g.Intn(4) {
	case 0:
		return nil
	case 1:
		return []byte{}
	}
	v := make([]byte, 1+g.Intn(300))
	g.Read(v)
	return v
}

func (g wireGen) str() string {
	return []string{"", "M", "W", "batch", "M/0123456789abcdef", "ünï", strings.Repeat("k", 200)}[g.Intn(7)]
}

func (g wireGen) int() int {
	return []int{0, 1, 2, -1, 7, 300, math.MaxInt64, math.MinInt64}[g.Intn(8)]
}

func (g wireGen) request(op Op) WireRequest {
	return WireRequest{
		Version: g.Intn(cloud.ProtocolVersion + 1), Op: op, Variant: g.str(),
		Classes: g.ints(), Weights: g.floats(), Input: g.floats(),
		RouteKey: g.str(), RingVersion: []uint64{0, 1, 127, 128, math.MaxUint64}[g.Intn(5)],
		BudgetMicros: int64(g.int()), Tenant: g.str(), Lane: g.int(), Payload: g.bytes(),
	}
}

func (g wireGen) response() WireResponse {
	return WireResponse{
		Version: g.Intn(cloud.ProtocolVersion + 1), Code: cloud.Code(g.Intn(256)), Err: g.str(),
		Logits: g.floats(), Class: g.int(),
		CacheHit: g.Intn(2) == 0, Fallback: g.Intn(2) == 0, Payload: g.bytes(),
	}
}

// Every field of every op survives the trip — into a fresh value and
// into one value reused for the whole sequence, the way a connection's
// request is, so what one frame left behind (a longer slice, a non-nil
// one) never shows in the next.
func TestCodecRoundTrip(t *testing.T) {
	g := wireGen{rand.New(rand.NewSource(28))}
	var reusedReq WireRequest
	var reusedResp WireResponse
	for i := 0; i < 3000; i++ {
		req := g.request(Op(i % (int(OpRingUpdate) + 2))) // every op, and one past the last
		body := req.AppendWire(nil)
		var fresh WireRequest
		if err := fresh.DecodeWire(body); err != nil {
			t.Fatalf("request %d %+v: %v", i, req, err)
		}
		if err := reusedReq.DecodeWire(body); err != nil {
			t.Fatal(err)
		}
		if want := viewRequest(req); !reflect.DeepEqual(viewRequest(fresh), want) || !reflect.DeepEqual(viewRequest(reusedReq), want) {
			t.Fatalf("request %d changed on the wire:\nsent   %+v\nfresh  %+v\nreused %+v", i, req, fresh, reusedReq)
		}

		resp := g.response()
		body = resp.AppendWire(nil)
		var freshResp WireResponse
		if err := freshResp.DecodeWire(body); err != nil {
			t.Fatalf("response %d %+v: %v", i, resp, err)
		}
		if err := reusedResp.DecodeWire(body); err != nil {
			t.Fatal(err)
		}
		if want := viewResponse(resp); !reflect.DeepEqual(viewResponse(freshResp), want) || !reflect.DeepEqual(viewResponse(reusedResp), want) {
			t.Fatalf("response %d changed on the wire:\nsent   %+v\nfresh  %+v\nreused %+v", i, resp, freshResp, reusedResp)
		}
	}
	// The generator covers what it claims to.
	every := WireRequest{Weights: awkwardFloats, Input: awkwardFloats}
	var got WireRequest
	if err := got.DecodeWire(every.AppendWire(nil)); err != nil || !reflect.DeepEqual(bits(got.Input), bits(awkwardFloats)) || !reflect.DeepEqual(bits(got.Weights), bits(awkwardFloats)) {
		t.Fatalf("awkward floats changed: %v / %x", err, bits(got.Input))
	}
}

// One golden frame per message type, as an rpc.Client and rpc.Server put
// them on a connection. An edit that moves a field, changes an integer
// encoding or touches the framing fails here first: bump
// cloud.ProtocolVersion with it.
func TestGoldenFrames(t *testing.T) {
	req := WireRequest{
		Version: 4, Op: OpInfer, Variant: "M", Classes: []int{3, 7}, Weights: []float64{0.75, 0.25},
		Input: []float64{1, -2.5, math.Copysign(0, -1)}, RouteKey: "M/k", RingVersion: 300,
		BudgetMicros: 250000, Tenant: "t", Lane: 1, Payload: []byte{0xca, 0xfe},
	}
	const goldenReq = "40000000" + // body length
		"08" + "00" + "02" + "a0c21e" + "ac02" + // version 4, op 0, lane 1, budget 250000, ring 300
		"014d" + "0174" + "034d2f6b" + // "M", "t", "M/k"
		"03060e" + // classes: 2 of them, 3, 7
		"03000000000000e83f000000000000d03f" + // weights: 2 of them, 0.75, 0.25
		"03cafe" + // payload: 2 bytes
		"04000000000000f03f00000000000004c00000000000000080" + // input: 3 of them, 1, -2.5, -0
		"3fda0dd2" // CRC-32C
	resp := WireResponse{
		Version: 4, Code: cloud.CodeBusy, Err: "no", Logits: []float64{0.5, -1}, Class: 1,
		CacheHit: true, Fallback: true, Payload: []byte{},
	}
	const goldenResp = "19000000" +
		"08" + "02" + "02" + "03" + // version 4, code 2, class 1, flags hit|fallback
		"026e6f" + "01" + // "no", empty (non-nil) payload
		"03000000000000e03f000000000000f0bf" + // logits: 2 of them, 0.5, -1
		"e66885bc"

	ln := rpc.NewPipeListener()
	defer ln.Close()
	sawReq := make(chan string, 1)
	go func() {
		conn, err := ln.Accept()
		if err != nil {
			return
		}
		defer conn.Close()
		raw := make([]byte, len(goldenReq)/2)
		_, _ = io.ReadFull(conn, raw)
		sawReq <- hex.EncodeToString(raw)
		answer, _ := hex.DecodeString(goldenResp)
		_, _ = conn.Write(answer)
	}()
	c := rpc.NewClient[WireRequest, WireResponse]("pipe", time.Second, 0)
	c.Dial = ln.Dial
	got, err := c.Do(&req, time.Now().Add(5*time.Second))
	if sent := <-sawReq; sent != goldenReq {
		t.Errorf("request frame\n got %s\nwant %s", sent, goldenReq)
	}
	if err != nil || !reflect.DeepEqual(*got, resp) {
		t.Errorf("golden response decoded to %+v (%v), want %+v", got, err, resp)
	}
	if f := hex.EncodeToString(frameOf(resp.AppendWire(nil))); f != goldenResp {
		t.Errorf("response frame\n got %s\nwant %s", f, goldenResp)
	}
}

// What the decoder refuses: a later version (by name, before anything
// else is read), a length field past the bytes that are there (an error,
// never a make), trailing bytes, and — responses only — a code or flag
// bit outside the layout.
func TestCodecRefusals(t *testing.T) {
	good := (&WireRequest{Version: cloud.ProtocolVersion, Variant: "M", Classes: []int{1}, Input: []float64{1, 2}}).AppendWire(nil)
	var req WireRequest
	for cut := 0; cut < len(good); cut++ {
		if err := req.DecodeWire(good[:cut]); err == nil {
			t.Fatalf("request cut to %d of %d bytes decoded: %+v", cut, len(good), req)
		}
	}
	if err := req.DecodeWire(append(good[:len(good):len(good)], 0)); err == nil {
		t.Fatal("a byte after the last field was accepted")
	}
	future := (&WireRequest{Version: cloud.ProtocolVersion + 1}).AppendWire(nil)
	if err := req.DecodeWire(future[:1]); err == nil || !strings.Contains(err.Error(), "protocol version 5 not supported") {
		t.Fatalf("future version, nothing after it: %v", err)
	}
	// A count of 2^40 floats with 16 bytes behind it.
	huge := binary.AppendUvarint((&WireRequest{}).AppendWire(nil)[:11], 1<<40+1)
	huge = append(huge, make([]byte, 16)...)
	if allocs := testing.AllocsPerRun(10, func() {
		if err := req.DecodeWire(huge); err == nil {
			t.Fatal("2^40 floats accepted")
		}
	}); allocs > 0 {
		t.Fatalf("refusing an impossible count allocated %v times", allocs)
	}

	var resp WireResponse
	body := (&WireResponse{}).AppendWire(nil)
	body[4] = 4 // flags
	if err := resp.DecodeWire(body); err == nil {
		t.Fatal("unknown flag bit accepted")
	}
	body = append([]byte{0, 0x80, 0x02}, (&WireResponse{}).AppendWire(nil)[2:]...) // code 256
	if err := resp.DecodeWire(body); err == nil {
		t.Fatal("code 256 accepted")
	}
}
