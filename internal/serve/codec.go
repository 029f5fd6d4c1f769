package serve

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"math"
	"slices"

	"capnn/internal/cloud"
	"capnn/internal/nn"
)

// The body layout of the two wire messages, inside internal/rpc's
// checksummed frame, of the RingUpdate an OpRingUpdate request carries as
// its payload (and a gateway's ring file as its body), and of the
// MaskPayload an OpPersonalize response carries. Every op uses the one
// layout:
//
//	WireRequest:  version op lane budget ringVersion | variant tenant
//	              routeKey classes weights payload | input
//	WireResponse: version code class flags | err payload | logits
//	RingUpdate:   epoch seed virtualNodes replication | members you
//	MaskPayload:  base stages | (stage units bits)…
//
// Signed integers are zig-zag varints, ringVersion, code and epoch are
// uvarints, flags is one byte (bit 0 CacheHit, bit 1 Fallback). A string
// is its uvarint length and its bytes. A slice is uvarint(len+1) and its
// elements, 0 standing for nil, so nil and empty survive the trip: bytes
// raw, classes as varints, float64s as their little-endian IEEE-754 bits
// — a served logit is the computed one to the bit, NaN payloads, −0 and
// subnormals included. The bulk floats come last. The version comes
// first: a peer speaking a later layout is refused before anything else
// is read. In a MaskPayload, base is four little-endian bytes and stages
// the count of the stage records that follow in ascending stage order:
// index and unit count as minimal uvarints, then one bit per unit (unit
// i in byte i/8 at bit i%8, the unused high bits zero), so a payload that
// decodes re-encodes to the same bytes. Nothing here is self-describing; the
// golden frames in codec_test.go are the contract.

func appendString(b []byte, s string) []byte {
	return append(binary.AppendUvarint(b, uint64(len(s))), s...)
}

func appendBytes(b, p []byte) []byte {
	if p == nil {
		return append(b, 0)
	}
	return append(binary.AppendUvarint(b, uint64(len(p))+1), p...)
}

func appendStrings(b []byte, v []string) []byte {
	if v == nil {
		return append(b, 0)
	}
	b = binary.AppendUvarint(b, uint64(len(v))+1)
	for _, s := range v {
		b = appendString(b, s)
	}
	return b
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
	b = slices.Grow(binary.AppendUvarint(b, uint64(len(v))+1), 8*len(v))
	for _, x := range v {
		b = binary.LittleEndian.AppendUint64(b, math.Float64bits(x))
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

func (d *wireReader) strs() []string {
	n, isNil := d.count(1)
	if isNil {
		return nil
	}
	out := make([]string, 0, n)
	for ; n > 0 && d.err == nil; n-- {
		out = append(out, d.str())
	}
	return out
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
	src := d.take(uint64(8 * n))[:8*n] // count checked the length; this bounds the loop's reads
	for i := range dst {
		dst[i] = math.Float64frombits(binary.LittleEndian.Uint64(src[8*i : 8*i+8]))
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

// AppendWire appends u in the RingUpdate layout.
func (u *RingUpdate) AppendWire(b []byte) []byte {
	b = binary.AppendUvarint(b, u.Epoch)
	b = binary.AppendVarint(b, u.Seed)
	b = binary.AppendVarint(b, int64(u.VirtualNodes))
	b = binary.AppendVarint(b, int64(u.Replication))
	b = appendStrings(b, u.Members)
	return appendString(b, u.You)
}

// DecodeWire overwrites u with the RingUpdate body holds. It checks the
// layout only: a view that decodes may still name a ring nobody can
// build, and its receiver validates it before use.
func (u *RingUpdate) DecodeWire(body []byte) error {
	d := wireReader{b: body}
	u.Epoch = d.uvarint()
	u.Seed = d.varint()
	u.VirtualNodes = int(d.varint())
	u.Replication = int(d.varint())
	u.Members = d.strs()
	u.You = d.str()
	return d.finish()
}

// MaskPayload is an OpPersonalize answer: the masks a shard serves a key
// with, and the checksum of the base network they apply to. A device
// compacts its own copy of that base under them (nn.CompactMasked), so
// what crosses the wire is one bit per unit, not a model.
type MaskPayload struct {
	// Base is BaseSum of the network the masks were computed on.
	Base  uint32
	Masks map[int][]bool
}

// BaseSum is the CRC-32C of net's nn.Save bytes: the name a mask payload
// gives the base network its masks belong to.
func BaseSum(net *nn.Network) (uint32, error) {
	h := crc32.New(crc32.MakeTable(crc32.Castagnoli))
	err := nn.Save(h, net)
	return h.Sum32(), err
}

// AppendWire appends p in the MaskPayload layout.
func (p *MaskPayload) AppendWire(b []byte) []byte {
	b = binary.LittleEndian.AppendUint32(b, p.Base)
	stages := make([]int, 0, len(p.Masks))
	for s := range p.Masks {
		stages = append(stages, s)
	}
	slices.Sort(stages)
	b = binary.AppendUvarint(b, uint64(len(stages)))
	for _, s := range stages {
		m := p.Masks[s]
		b = binary.AppendUvarint(b, uint64(s))
		b = binary.AppendUvarint(b, uint64(len(m)))
		at := len(b)
		b = append(b, make([]byte, (len(m)+7)/8)...)
		for i, pruned := range m {
			if pruned {
				b[at+i/8] |= 1 << (i % 8)
			}
		}
	}
	return b
}

// DecodeWire overwrites p with the MaskPayload body holds. It refuses
// anything AppendWire would not have written — stages out of order,
// padded varints, set padding bits — so that whatever decodes re-encodes
// byte for byte. It checks the layout only: whether the masks fit a
// network is nn.CompactMasked's to judge.
func (p *MaskPayload) DecodeWire(body []byte) error {
	d := wireReader{b: body}
	base := d.take(4)
	n := d.uvarint()
	if n > uint64(len(d.b)/2) { // a stage record is at least two bytes
		d.fail(errShort)
		n = 0
	}
	masks := make(map[int][]bool, n)
	for ; n > 0 && d.err == nil; n-- {
		stage, units := d.uvarint(), d.uvarint()
		if stage > math.MaxInt32 || units > 8*uint64(len(d.b)) {
			d.fail(fmt.Errorf("stage %d of %d units past the layout", stage, units))
			break
		}
		packed := d.take((units + 7) / 8)
		m := make([]bool, units)
		for i := range m {
			m[i] = packed[i/8]&(1<<(i%8)) != 0
		}
		masks[int(stage)] = m
	}
	if err := d.finish(); err != nil {
		return err
	}
	*p = MaskPayload{Base: binary.LittleEndian.Uint32(base), Masks: masks}
	if !bytes.Equal(p.AppendWire(nil), body) {
		return errors.New("mask payload not in its one encoding: stage order, padded varints or padding bits")
	}
	return nil
}
