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
	"bytes"
	"encoding/gob"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strconv"

	"capnn/internal/cloud"
	"capnn/internal/serve"
	"capnn/internal/store"
)

// legacyWireRequest is the protocol-v1 frame shape — no QoS fields.
// Gob matches fields by name, not by Go type, so frames encoded from
// this struct are byte-faithful stand-ins for what pre-QoS clients
// still send; keeping them in the corpus pins the decoder's backward
// compatibility (missing fields must decode to zero: no deadline,
// default tenant, interactive lane).
type legacyWireRequest struct {
	Version     int
	Op          serve.Op
	Variant     string
	Classes     []int
	Weights     []float64
	Input       []float64
	RouteKey    string
	RingVersion uint64
}

func main() {
	root := "."
	if len(os.Args) > 1 {
		root = os.Args[1]
	}

	write(root, "internal/serve/testdata/fuzz/FuzzWireRequestDecode", map[string][]byte{
		"seed-minimal": gobBytes(&serve.WireRequest{Classes: []int{0}}),
		"seed-full": gobBytes(&serve.WireRequest{
			Version: cloud.ProtocolVersion, Variant: "W",
			Classes: []int{0, 1}, Weights: []float64{3, 1},
			Input: make([]float64, 36),
		}),
		"seed-default-variant": gobBytes(&serve.WireRequest{
			Version: cloud.ProtocolVersion, Classes: []int{2, 3}, Input: []float64{1, 2, 3, 4},
		}),
		"seed-v1-legacy": gobBytes(&legacyWireRequest{
			Version: 1, Variant: "M",
			Classes: []int{0, 1}, Weights: []float64{2, 1},
			Input: make([]float64, 16), RouteKey: "M/abc", RingVersion: 3,
		}),
		"seed-qos": gobBytes(&serve.WireRequest{
			Version: cloud.ProtocolVersion, Variant: "M",
			Classes: []int{1, 2}, Weights: []float64{4, 1},
			Input: make([]float64, 16), RouteKey: "M/def", RingVersion: 7,
			BudgetMicros: 250_000, Tenant: "batch", Lane: 1,
		}),
		// An inference whose input carries NaN and ±Inf: it decodes (gob
		// has no opinion on float values) and Server.infer must refuse
		// it as a bad request before any forward runs.
		"seed-non-finite-input": gobBytes(&serve.WireRequest{
			Version: cloud.ProtocolVersion, Variant: "M", Classes: []int{0, 1},
			Input: []float64{0.5, math.NaN(), math.Inf(1), math.Inf(-1)},
		}),
		// A warm-handoff import naming a class no model has: the second
		// gob stage (Payload) must be refused by validation, not indexed.
		"seed-cache-import-bad-class": gobBytes(&serve.WireRequest{
			Version: cloud.ProtocolVersion, Op: serve.OpCacheImport,
			Payload: gobBytes([]serve.CachedMask{{Key: "bad", Variant: "M", Classes: []int{9999}, Weights: []float64{1}}}),
		}),
	})

	write(root, "internal/cloud/testdata/fuzz/FuzzCloudRequestDecode", map[string][]byte{
		"seed-weighted": gobBytes(&cloud.Request{
			Version: cloud.ProtocolVersion, Variant: "M",
			Classes: []int{0, 2, 5}, Weights: []float64{5, 3, 1},
		}),
		"seed-uniform": gobBytes(&cloud.Request{Variant: "B", Classes: []int{1, 4}}),
	})

	model := []byte("seed-model-payload")
	write(root, "internal/cloud/testdata/fuzz/FuzzCloudResponseDecode", map[string][]byte{
		"seed-ok": gobBytes(&cloud.Response{
			Version: cloud.ProtocolVersion, Code: cloud.CodeOK,
			Model: model, ModelSum: cloud.ModelSum(model),
			Stats: cloud.Stats{RelativeSize: 0.42, PrunedUnits: 7, TotalUnits: 12},
		}),
		"seed-busy": gobBytes(&cloud.Response{
			Version: cloud.ProtocolVersion, Code: cloud.CodeBusy, Err: "server busy",
		}),
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

func gobBytes(v any) []byte {
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(v); err != nil {
		panic(err)
	}
	return buf.Bytes()
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
