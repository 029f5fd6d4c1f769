// Command genfuzzcorpus regenerates the checked-in seed corpora under
// internal/*/testdata/fuzz/. Each seed is a well-formed wire message or
// store file, so `go test -fuzz` starts mutating from deep inside the
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

	masks := serve.MaskPayload{Base: 0x5eed0001, Masks: map[int][]bool{
		3: {true, false, false, true, false, false, false, false, true},
		4: {false, true, false},
		5: make([]bool, 12),
	}}
	ringUpdate := serve.RingUpdate{Epoch: 9, Seed: 3, VirtualNodes: 128, Replication: 2, Members: []string{"10.0.0.1:7000", "10.0.0.2:7000"}}
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
			Logits: []float64{0.125, -3, 7.5, 0}, Class: 2, CacheHit: true,
		}).AppendWire(nil),
		"seed-expired": (&serve.WireResponse{
			Version: cloud.ProtocolVersion, Code: cloud.CodeExpired, Err: "deadline budget exhausted before arrival (50µs over)",
		}).AppendWire(nil),
		// A response carrying an op's payload.
		"seed-export": (&serve.WireResponse{
			Version: cloud.ProtocolVersion, Code: cloud.CodeOK, Payload: masks.AppendWire(nil),
		}).AppendWire(nil),
	})
	write(root, "internal/serve/testdata/fuzz/FuzzRingUpdatePayload", map[string][]byte{"seed-two-members": withYou(ringUpdate, "10.0.0.2:7000")})
	write(root, "internal/serve/testdata/fuzz/FuzzMaskPayload", map[string][]byte{
		"seed-pruned":    masks.AppendWire(nil),
		"seed-no-stages": (&serve.MaskPayload{Base: 0x5eed0002}).AppendWire(nil),
	})

	write(root, "internal/store/testdata/fuzz/FuzzReadFile", map[string][]byte{
		"seed-ring":       storeFile(ringUpdate.AppendWire(nil)),
		"seed-empty-body": storeFile(nil),
	})
}

// withYou is u addressed to one member, as a gateway broadcasts it.
func withYou(u serve.RingUpdate, you string) []byte {
	u.You = you
	return u.AppendWire(nil)
}

// storeFile is the file store.WriteFile leaves for body.
func storeFile(body []byte) []byte {
	dir, err := os.MkdirTemp("", "genfuzzcorpus")
	if err != nil {
		fatal(err)
	}
	defer os.RemoveAll(dir)
	path := filepath.Join(dir, "f")
	if err := store.WriteFile(path, body); err != nil {
		fatal(err)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		fatal(err)
	}
	return raw
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
