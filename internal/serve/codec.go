package serve

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"

	"capnn/internal/cloud"
)

// The body layout of the two wire messages, inside internal/rpc's
// checksummed frame. Every op uses the one layout:
//
//	WireRequest:  version op lane budget ringVersion | variant tenant
//	              routeKey classes weights payload | input
//	WireResponse: version code class flags | err payload | logits
//
// Signed integers are zig-zag varints, ringVersion and code are
// uvarints, flags is one byte (bit 0 CacheHit, bit 1 Fallback). A string
// is its uvarint length and its bytes. A slice is uvarint(len+1) and its
// elements, 0 standing for nil, so nil and empty survive the trip: bytes
// raw, classes as varints, float64s as their little-endian IEEE-754 bits
// — a served logit is the computed one to the bit, NaN payloads, −0 and
// subnormals included. The bulk floats come last. The version comes
// first: a peer speaking a later layout is refused before anything else
// is read. Nothing here is self-describing; the golden frames in
// codec_test.go are the contract.

func appendString(b []byte, s string) []byte {
	return append(binary.AppendUvarint(b, uint64(len(s))), s...)
}

func appendBytes(b, p []byte) []byte {
	if p == nil {
		return append(b, 0)
	}
	return append(binary.AppendUvarint(b, uint64(len(p))+1), p...)
}

func appendInts(b []byte, v []int) []byte {
	if v == nil {
		return append(b, 0)
	}
	b = binary.AppendUvarint(b, uint64(len(v))+1)
	for _, x := range v {
		b = binary.AppendVarint(b, int64(x))
	}
	return b
}

func appendFloats(b []byte, v []float64) []byte {
	if v == nil {
		return append(b, 0)
	}
	b = binary.AppendUvarint(b, uint64(len(v))+1)
	at := len(b)
	b = append(b, make([]byte, 8*len(v))...)
	for i, x := range v {
		binary.LittleEndian.PutUint64(b[at+8*i:], math.Float64bits(x))
	}
	return b
}

// wireReader consumes a body front to back. The first failure sticks:
// every later read returns zero, and finish reports it.
type wireReader struct {
	b   []byte
	err error
}

var errShort = errors.New("body ends inside a field")

func (d *wireReader) fail(err error) {
	if d.err == nil {
		d.err = err
	}
	d.b = nil
}

func (d *wireReader) uvarint() uint64 {
	v, n := binary.Uvarint(d.b)
	if n <= 0 {
		d.fail(errShort)
		return 0
	}
	d.b = d.b[n:]
	return v
}

func (d *wireReader) varint() int64 {
	v, n := binary.Varint(d.b)
	if n <= 0 {
		d.fail(errShort)
		return 0
	}
	d.b = d.b[n:]
	return v
}

// version reads the leading version and refuses a later one than this
// end speaks: the rest of such a body is in a layout it does not know.
func (d *wireReader) version() int {
	v := d.varint()
	if v > cloud.ProtocolVersion {
		d.fail(fmt.Errorf("protocol version %d not supported (this end speaks ≤ %d)", v, cloud.ProtocolVersion))
	}
	return int(v)
}

// take returns the next n bytes. A length the body cannot hold is an
// error before anything is sized by it.
func (d *wireReader) take(n uint64) []byte {
	if n > uint64(len(d.b)) {
		d.fail(errShort)
		return nil
	}
	p := d.b[:n]
	d.b = d.b[n:]
	return p
}

func (d *wireReader) str() string { return string(d.take(d.uvarint())) }

// count reads a slice header for elements of at least size bytes each.
func (d *wireReader) count(size int) (n int, isNil bool) {
	c := d.uvarint()
	if c == 0 {
		return 0, true
	}
	if c-1 > uint64(len(d.b)/size) {
		d.fail(errShort)
		return 0, true
	}
	return int(c - 1), false
}

// The slice readers fill dst's capacity when it suffices: a connection's
// reused WireRequest decodes a warm frame without allocating.

func (d *wireReader) bytes(dst []byte) []byte {
	n, isNil := d.count(1)
	if isNil {
		return nil
	}
	if dst == nil {
		dst = []byte{} // an empty field stays non-nil
	}
	return append(dst[:0], d.take(uint64(n))...)
}

func (d *wireReader) ints(dst []int) []int {
	n, isNil := d.count(1)
	if isNil {
		return nil
	}
	if dst == nil || cap(dst) < n {
		dst = make([]int, 0, n)
	}
	dst = dst[:0]
	for ; n > 0 && d.err == nil; n-- {
		dst = append(dst, int(d.varint()))
	}
	return dst
}

func (d *wireReader) floats(dst []float64) []float64 {
	n, isNil := d.count(8)
	if isNil {
		return nil
	}
	if dst == nil || cap(dst) < n {
		dst = make([]float64, n)
	}
	dst = dst[:n]
	src := d.take(uint64(8 * n))
	for i := range dst {
		dst[i] = math.Float64frombits(binary.LittleEndian.Uint64(src[8*i:]))
	}
	return dst
}

func (d *wireReader) finish() error {
	if d.err == nil && len(d.b) != 0 {
		d.err = fmt.Errorf("%d bytes after the last field", len(d.b))
	}
	return d.err
}

// AppendWire implements rpc.Message.
func (r *WireRequest) AppendWire(b []byte) []byte {
	b = binary.AppendVarint(b, int64(r.Version))
	b = binary.AppendVarint(b, int64(r.Op))
	b = binary.AppendVarint(b, int64(r.Lane))
	b = binary.AppendVarint(b, r.BudgetMicros)
	b = binary.AppendUvarint(b, r.RingVersion)
	b = appendString(b, r.Variant)
	b = appendString(b, r.Tenant)
	b = appendString(b, r.RouteKey)
	b = appendInts(b, r.Classes)
	b = appendFloats(b, r.Weights)
	b = appendBytes(b, r.Payload)
	return appendFloats(b, r.Input)
}

// DecodeWire implements rpc.Message: every field is overwritten, and
// Classes, Weights, Payload and Input reuse the receiver's capacity.
func (r *WireRequest) DecodeWire(body []byte) error {
	d := wireReader{b: body}
	r.Version = d.version()
	r.Op = Op(d.varint())
	r.Lane = int(d.varint())
	r.BudgetMicros = d.varint()
	r.RingVersion = d.uvarint()
	r.Variant = d.str()
	r.Tenant = d.str()
	r.RouteKey = d.str()
	r.Classes = d.ints(r.Classes)
	r.Weights = d.floats(r.Weights)
	r.Payload = d.bytes(r.Payload)
	r.Input = d.floats(r.Input)
	return d.finish()
}

const (
	flagCacheHit = 1 << iota
	flagFallback
)

// AppendWire implements rpc.Message.
func (r *WireResponse) AppendWire(b []byte) []byte {
	b = binary.AppendVarint(b, int64(r.Version))
	b = binary.AppendUvarint(b, uint64(r.Code))
	b = binary.AppendVarint(b, int64(r.Class))
	var flags byte
	if r.CacheHit {
		flags |= flagCacheHit
	}
	if r.Fallback {
		flags |= flagFallback
	}
	b = append(b, flags)
	b = appendString(b, r.Err)
	b = appendBytes(b, r.Payload)
	return appendFloats(b, r.Logits)
}

// DecodeWire implements rpc.Message.
func (r *WireResponse) DecodeWire(body []byte) error {
	d := wireReader{b: body}
	r.Version = d.version()
	code := d.uvarint()
	r.Class = int(d.varint())
	flags := d.take(1)
	r.Err = d.str()
	r.Payload = d.bytes(r.Payload)
	r.Logits = d.floats(r.Logits)
	if err := d.finish(); err != nil {
		return err
	}
	if code > math.MaxUint8 || flags[0]&^(flagCacheHit|flagFallback) != 0 {
		return fmt.Errorf("code %d / flags %#x outside the layout", code, flags[0])
	}
	r.Code = cloud.Code(code)
	r.CacheHit, r.Fallback = flags[0]&flagCacheHit != 0, flags[0]&flagFallback != 0
	return nil
}
