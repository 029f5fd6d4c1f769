package store

import (
	"bytes"
	"encoding/gob"
	"fmt"

	"capnn/internal/nn"
)

// Canonical artifact names used by the CAP'NN binaries. A generation
// carries whichever subset its writer owns: capnn-train commits model
// (+trainmeta while mid-run), capnn-gateway commits ringconfig.
const (
	// ArtifactModel is the trained nn.Network (nn.Save wire format).
	ArtifactModel = "model"
	// ArtifactTrainMeta is training progress (TrainMeta), present only
	// in mid-training checkpoints.
	ArtifactTrainMeta = "trainmeta"
	// ArtifactRingConfig is the cluster gateway's ring configuration
	// (RingConfig), committed on every membership change so a restarted
	// gateway resumes routing with the same placement.
	ArtifactRingConfig = "ringconfig"
)

// TrainMeta records how far training had progressed when a checkpoint
// was taken, so capnn-train can resume instead of starting over.
type TrainMeta struct {
	// EpochsDone is the number of fully completed epochs; resume starts
	// at epoch EpochsDone+1.
	EpochsDone int
	// TotalEpochs is the run's configured epoch count, so a resumed run
	// detects a changed -epochs flag.
	TotalEpochs int
	// Seed is the training RNG seed the run was started with.
	Seed int64
}

// PutNetwork stages a network under the given artifact name.
func (t *Txn) PutNetwork(name string, net *nn.Network) error {
	var buf bytes.Buffer
	if err := nn.Save(&buf, net); err != nil {
		return fmt.Errorf("store: encode %q: %w", name, err)
	}
	return t.Put(name, buf.Bytes())
}

// Network loads and decodes a network artifact.
func (g *Generation) Network(name string) (*nn.Network, error) {
	data, err := g.Bytes(name)
	if err != nil {
		return nil, err
	}
	net, err := nn.Load(bytes.NewReader(data))
	if err != nil {
		return nil, fmt.Errorf("store: decode %q: %w", name, err)
	}
	return net, nil
}

// PutGob stages any gob-encodable value under the given artifact name.
func (t *Txn) PutGob(name string, v any) error {
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(v); err != nil {
		return fmt.Errorf("store: encode %q: %w", name, err)
	}
	return t.Put(name, buf.Bytes())
}

// Gob loads an artifact and gob-decodes it into out (a pointer).
func (g *Generation) Gob(name string, out any) error {
	data, err := g.Bytes(name)
	if err != nil {
		return err
	}
	if err := gob.NewDecoder(bytes.NewReader(data)).Decode(out); err != nil {
		return fmt.Errorf("store: decode %q: %w", name, err)
	}
	return nil
}

// RingConfig is the durable form of a cluster gateway's consistent-hash
// ring: everything needed to rebuild bit-identical placement after a
// restart. Placement is a pure function of (Seed, VirtualNodes, Nodes),
// so persisting these three pins every key to the same serve node
// across gateway restarts — mask caches on the shards stay warm.
type RingConfig struct {
	// Seed salts the ring's hash function.
	Seed int64
	// VirtualNodes is the number of ring points per member.
	VirtualNodes int
	// Replication is how many distinct owners each key has.
	Replication int
	// Version is the ring version at commit time; a restarted gateway
	// resumes numbering from here so version comparisons against
	// long-lived peers stay monotonic.
	Version uint64
	// Nodes are the member serve-node addresses.
	Nodes []string
}

// PutRingConfig stages the gateway ring configuration.
func (t *Txn) PutRingConfig(rc RingConfig) error { return t.PutGob(ArtifactRingConfig, rc) }

// RingConfig loads the gateway ring configuration artifact.
func (g *Generation) RingConfig() (RingConfig, error) {
	var rc RingConfig
	err := g.Gob(ArtifactRingConfig, &rc)
	return rc, err
}

// PutTrainMeta stages training progress metadata.
func (t *Txn) PutTrainMeta(m TrainMeta) error { return t.PutGob(ArtifactTrainMeta, m) }

// TrainMeta loads the training progress artifact.
func (g *Generation) TrainMeta() (TrainMeta, error) {
	var m TrainMeta
	err := g.Gob(ArtifactTrainMeta, &m)
	return m, err
}
