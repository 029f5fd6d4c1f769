// Command genfuzzcorpus regenerates the checked-in seed corpora under
// internal/*/testdata/fuzz/. Each seed is a well-formed wire message or
// manifest, so `go test -fuzz` starts mutating from deep inside the
// decoders instead of from bytes that fail at the first frame marker.
// Run from the repository root:
//
//	go run ./scripts/genfuzzcorpus
//
// The files it writes are ordinary Go fuzz corpus entries; `go test`
// (without -fuzz) also replays them as regression inputs.
package main

import (
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strconv"

	"capnn/internal/cloud"
	"capnn/internal/serve"
	"capnn/internal/store"
)

func main() {
	root := "."
	if len(os.Args) > 1 {
		root = os.Args[1]
	}

	badCache := payload([]CachedMask{{Key: "bad", Variant: "M", Classes: []int{9999}, Weights: []float64{1}}})
	ringUpdate := payload(serve.RingUpdate{Epoch: 9, Seed: 3, VirtualNodes: 128, Replication: 2, Members: []string{"10.0.0.1:7000", "10.0.0.2:7000"}, You: "10.0.0.2:7000"})
	write(root, "internal/serve/testdata/fuzz/FuzzWireRequestDecode", map[string][]byte{
		"seed-minimal": (&serve.WireRequest{Classes: []int{0}}).AppendWire(nil),
		"seed-full": (&serve.WireRequest{
			Version: cloud.ProtocolVersion, Variant: "W",
			Classes: []int{0, 1}, Weights: []float64{3, 1},
			Input: make([]float64, 36),
		}).AppendWire(nil),
		"seed-default-variant": (&serve.WireRequest{
			Version: cloud.ProtocolVersion, Classes: []int{2, 3}, Input: []float64{1, 2, 3, 4},
		}).AppendWire(nil),
		"seed-qos": (&serve.WireRequest{
			Version: cloud.ProtocolVersion, Variant: "M",
			Classes: []int{1, 2}, Weights: []float64{4, 1},
			Input: make([]float64, 16), RouteKey: "M/def", RingVersion: 7,
			BudgetMicros: 250_000, Tenant: "batch", Lane: 1,
		}).AppendWire(nil),
		// An inference whose input carries NaN and ±Inf: it decodes (the
		// layout carries any float64 bits) and Server.infer must refuse
		// it as a bad request before any forward runs.
		"seed-non-finite-input": (&serve.WireRequest{
			Version: cloud.ProtocolVersion, Variant: "M", Classes: []int{0, 1},
			Input: []float64{0.5, math.NaN(), math.Inf(1), math.Inf(-1)},
		}).AppendWire(nil),
	})
	write(root, "internal/serve/testdata/fuzz/FuzzWireResponseDecode", map[string][]byte{
		"seed-ok": (&serve.WireResponse{
			Version: cloud.ProtocolVersion, Code: cloud.CodeOK,
			Logits: []float64{0.125, -3, 7.5, 0}, Class: 2, Batch: 1, CacheHit: true,
		}).AppendWire(nil),
		"seed-expired": (&serve.WireResponse{
			Version: cloud.ProtocolVersion, Code: cloud.CodeExpired, Err: "deadline budget exhausted before arrival (50µs over)",
		}).AppendWire(nil),
		"seed-export": (&serve.WireResponse{
			Version: cloud.ProtocolVersion, Code: cloud.CodeOK, Batch: 1, Payload: badCache,
		}).AppendWire(nil),
	})
	write(root, "internal/serve/testdata/fuzz/FuzzRingUpdatePayload", map[string][]byte{"seed-two-members": ringUpdate})
	write(root, "internal/cloud/testdata/fuzz/FuzzCloudRequestDecode", map[string][]byte{
		"seed-weighted": (&cloud.Request{
			Version: cloud.ProtocolVersion, Variant: "M",
			Classes: []int{0, 2, 5}, Weights: []float64{5, 3, 1},
		}).AppendWire(nil),
		"seed-uniform": (&cloud.Request{Variant: "B", Classes: []int{1, 4}}).AppendWire(nil),
	})

	model := []byte("seed-model-payload")
	write(root, "internal/cloud/testdata/fuzz/FuzzCloudResponseDecode", map[string][]byte{
		"seed-ok": (&cloud.Response{
			Version: cloud.ProtocolVersion, Code: cloud.CodeOK,
			Model: model, ModelSum: cloud.ModelSum(model),
			Stats: cloud.Stats{RelativeSize: 0.42, PrunedUnits: 7, TotalUnits: 12},
		}).AppendWire(nil),
		"seed-busy": (&cloud.Response{
			Version: cloud.ProtocolVersion, Code: cloud.CodeBusy, Err: "server busy",
		}).AppendWire(nil),
	})

	m := store.Manifest{
		Version: store.SchemaVersion, Generation: 3, CreatedUnixNano: 1700000000000000000,
		Artifacts: []store.ArtifactInfo{
			{Name: "model", Size: 128, CRC: 0xdeadbeef},
			{Name: "rates", Size: 64, CRC: 0x01},
		},
	}
	empty := store.Manifest{Version: store.SchemaVersion, Generation: 1, CreatedUnixNano: 1}
	write(root, "internal/store/testdata/fuzz/FuzzManifest", map[string][]byte{
		"seed-two-artifacts": m.Encode(),
		"seed-empty-gen":     empty.Encode(),
	})
}

// CachedMask is the gob layout behind the seed-export response's payload:
// a one-entry mask-cache snapshot naming a class no model has. Any gob
// value would do; this one keeps the checked-in bytes.
type CachedMask struct {
	Key         string
	Variant     string
	Classes     []int
	Weights     []float64
	Masks       map[int][]bool
	PrunedUnits int
	TotalUnits  int
}

// payload is a control op's second-stage blob.
func payload(v any) []byte {
	p, err := serve.EncodePayload(v)
	if err != nil {
		panic(err)
	}
	return p
}

// write stores each seed in the Go fuzz corpus file format: a version
// header plus one Go-quoted []byte literal per fuzz argument.
func write(root, rel string, seeds map[string][]byte) {
	dir := filepath.Join(root, rel)
	if err := os.MkdirAll(dir, 0o755); err != nil {
		fatal(err)
	}
	for name, data := range seeds {
		entry := "go test fuzz v1\n[]byte(" + strconv.Quote(string(data)) + ")\n"
		if err := os.WriteFile(filepath.Join(dir, name), []byte(entry), 0o644); err != nil {
			fatal(err)
		}
		fmt.Printf("wrote %s (%d bytes)\n", filepath.Join(rel, name), len(data))
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "genfuzzcorpus:", err)
	os.Exit(1)
}
