package firing

import (
	"bytes"
	"encoding/gob"
	"testing"
)

// FuzzLoadPacked exercises the packed-rates decoder with arbitrary bytes:
// errors are fine, panics are not, and any successfully decoded payload
// must unpack without panicking.
func FuzzLoadPacked(f *testing.F) {
	r := &Rates{Classes: 3, Layers: map[int]*LayerRates{
		0: {Stage: 0, Units: 4, Classes: 3, F: []float64{0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 1, 0, 0.25}},
	}}
	p, err := Pack(r, 3)
	if err != nil {
		f.Fatal(err)
	}
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(p); err != nil {
		f.Fatal(err)
	}
	f.Add(buf.Bytes())
	f.Add([]byte{})
	f.Add([]byte("P5 nonsense"))
	for _, tc := range malformedPacked() {
		var b bytes.Buffer
		if err := gob.NewEncoder(&b).Encode(tc.p); err != nil {
			f.Fatal(err)
		}
		f.Add(b.Bytes())
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		p, err := LoadPacked(bytes.NewReader(data))
		if err != nil {
			return
		}
		if u, err := p.Unpack(); err == nil {
			for _, lr := range u.Layers {
				for _, v := range lr.F {
					if v < 0 || v > 1 {
						t.Fatalf("unpacked rate %v outside [0,1]", v)
					}
				}
			}
		}
	})
}
