package nn

import (
	"bytes"
	"encoding/gob"
	"fmt"
	"io"
	"os"
)

// The wire format is a flat, versioned spec: one record per layer with its
// configuration and parameter values. Using concrete spec structs (rather
// than gob-encoding the Layer interface) keeps the format stable and easy
// to reason about — this is also what the cloud↔device protocol ships.

const wireVersion = 1

type netSpec struct {
	Version int
	InShape []int
	Layers  []layerSpec
}

type layerSpec struct {
	Kind string // "conv", "dense", "relu", "pool", "flatten"
	Name string

	// conv
	OutC, K, Stride, Pad int
	// dense
	Out int
	// pool
	PoolK, PoolStride int
	// dropout
	DropP    float64
	DropSeed int64

	// Files written while layers still stored prune masks carry a Pruned
	// field too; gob skips fields the struct no longer has.
	W, B []float64
}

// Save writes the network (configuration and weights) to w.
func Save(w io.Writer, net *Network) error {
	spec := netSpec{Version: wireVersion, InShape: net.InShape}
	for _, l := range net.Layers {
		var ls layerSpec
		ls.Name = l.Name()
		switch t := l.(type) {
		case *Conv2D:
			ls.Kind = "conv"
			ls.OutC, ls.K, ls.Stride, ls.Pad = t.outC, t.k, t.stride, t.pad
			ls.W = append([]float64(nil), t.w.W.Data()...)
			ls.B = append([]float64(nil), t.b.W.Data()...)
		case *Dense:
			ls.Kind = "dense"
			ls.Out = t.out
			ls.W = append([]float64(nil), t.w.W.Data()...)
			ls.B = append([]float64(nil), t.b.W.Data()...)
		case *ReLU:
			ls.Kind = "relu"
		case *MaxPool2D:
			ls.Kind = "pool"
			ls.PoolK, ls.PoolStride = t.k, t.stride
		case *Flatten:
			ls.Kind = "flatten"
		case *Dropout:
			ls.Kind = "dropout"
			ls.DropP = t.p
		default:
			return fmt.Errorf("nn: cannot serialize layer type %T", l)
		}
		spec.Layers = append(spec.Layers, ls)
	}
	return gob.NewEncoder(w).Encode(&spec)
}

// Load reads a network previously written by Save.
func Load(r io.Reader) (*Network, error) {
	var spec netSpec
	if err := gob.NewDecoder(r).Decode(&spec); err != nil {
		return nil, fmt.Errorf("nn: decode: %w", err)
	}
	if spec.Version != wireVersion {
		return nil, fmt.Errorf("nn: unsupported wire version %d (want %d)", spec.Version, wireVersion)
	}
	if len(spec.InShape) != 3 {
		return nil, fmt.Errorf("nn: bad input shape %v", spec.InShape)
	}
	net := &Network{InShape: append([]int(nil), spec.InShape...)}
	cur := net.InShape
	for _, ls := range spec.Layers {
		switch ls.Kind {
		case "conv":
			c, err := NewConv2DUninit(ls.Name, cur, ls.OutC, ls.K, ls.Stride, ls.Pad)
			if err != nil {
				return nil, err
			}
			if err := fillParam(c.w, ls.W, ls.Name); err != nil {
				return nil, err
			}
			if err := fillParam(c.b, ls.B, ls.Name); err != nil {
				return nil, err
			}
			net.Layers = append(net.Layers, c)
			cur = c.OutShape()
		case "dense":
			if len(cur) != 1 {
				return nil, fmt.Errorf("nn: dense %q after non-flat shape %v", ls.Name, cur)
			}
			d, err := NewDenseUninit(ls.Name, cur, ls.Out)
			if err != nil {
				return nil, err
			}
			if err := fillParam(d.w, ls.W, ls.Name); err != nil {
				return nil, err
			}
			if err := fillParam(d.b, ls.B, ls.Name); err != nil {
				return nil, err
			}
			net.Layers = append(net.Layers, d)
			cur = d.OutShape()
		case "relu":
			r := NewReLU(ls.Name, cur)
			net.Layers = append(net.Layers, r)
		case "pool":
			p, err := NewMaxPool2D(ls.Name, cur, ls.PoolK, ls.PoolStride)
			if err != nil {
				return nil, err
			}
			net.Layers = append(net.Layers, p)
			cur = p.OutShape()
		case "flatten":
			f := NewFlatten(ls.Name, cur)
			net.Layers = append(net.Layers, f)
			cur = f.OutShape()
		case "dropout":
			d, err := NewDropout(ls.Name, cur, ls.DropP, ls.DropSeed)
			if err != nil {
				return nil, err
			}
			net.Layers = append(net.Layers, d)
		default:
			return nil, fmt.Errorf("nn: unknown layer kind %q", ls.Kind)
		}
	}
	if len(net.Layers) == 0 {
		return nil, fmt.Errorf("nn: empty network spec")
	}
	return net, nil
}

func fillParam(p *Param, vals []float64, layer string) error {
	if len(vals) != p.W.Len() {
		return fmt.Errorf("nn: layer %q param %s has %d values, want %d", layer, p.Name, len(vals), p.W.Len())
	}
	copy(p.W.Data(), vals)
	return nil
}

// CloneNetwork deep-copies a network via its serialized form.
func CloneNetwork(net *Network) (*Network, error) {
	var buf bytes.Buffer
	if err := Save(&buf, net); err != nil {
		return nil, err
	}
	return Load(&buf)
}

// SaveFile writes the network to path, creating parent-less files directly.
func SaveFile(path string, net *Network) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	if err := Save(f, net); err != nil {
		return err
	}
	return f.Close()
}

// LoadFile reads a network from path.
func LoadFile(path string) (*Network, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return Load(f)
}
