package store

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"capnn/internal/nn"
)

// artifactRates is a second artifact name beside ArtifactModel.
const artifactRates = "rates"

func testNet(t *testing.T, seed int64) *nn.Network {
	t.Helper()
	net, err := nn.NewBuilder(1, 6, 6, seed).
		Conv(3).ReLU().Flatten().Dense(4).Build()
	if err != nil {
		t.Fatalf("build net: %v", err)
	}
	return net
}

func netBytes(t *testing.T, net *nn.Network) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := nn.Save(&buf, net); err != nil {
		t.Fatalf("save: %v", err)
	}
	return buf.Bytes()
}

// commitGen commits one generation holding the given artifacts.
func commitGen(t *testing.T, s *Store, artifacts map[string][]byte) int {
	t.Helper()
	txn, err := s.Begin()
	if err != nil {
		t.Fatalf("begin: %v", err)
	}
	for name, data := range artifacts {
		if err := txn.Put(name, data); err != nil {
			t.Fatalf("put %q: %v", name, err)
		}
	}
	if err := txn.Commit(); err != nil {
		t.Fatalf("commit: %v", err)
	}
	return txn.Generation()
}

func TestCommitAndReload(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	net := testNet(t, 1)
	want := netBytes(t, net)
	gen := commitGen(t, s, map[string][]byte{ArtifactModel: want, artifactRates: []byte("rates-blob")})

	// Reload through a fresh handle, as a restarted process would.
	s2, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	g, err := s2.Latest()
	if err != nil {
		t.Fatalf("latest: %v", err)
	}
	if g.Number != gen {
		t.Fatalf("latest generation %d, want %d", g.Number, gen)
	}
	got, err := g.Bytes(ArtifactModel)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatal("model bytes differ after reload")
	}
	if _, err := g.Network(ArtifactModel); err != nil {
		t.Fatalf("decode model: %v", err)
	}
	if g.Created().IsZero() {
		t.Fatal("zero created time")
	}
}

func TestEmptyStore(t *testing.T) {
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Latest(); !errors.Is(err, ErrNoGeneration) {
		t.Fatalf("latest on empty store: %v, want ErrNoGeneration", err)
	}
}

// Corrupting or truncating any artifact — or the manifest itself —
// must roll back to the previous generation bit-identically.
func TestCorruptionRollsBack(t *testing.T) {
	goodArtifacts := map[string][]byte{
		ArtifactModel: netBytes(t, testNet(t, 7)),
		artifactRates: []byte("generation-one-rates"),
	}
	cases := []struct {
		name    string
		corrupt func(t *testing.T, genDir string)
	}{
		{"flip-bit-model", flipByte(ArtifactModel)},
		{"flip-bit-rates", flipByte(artifactRates)},
		{"truncate-model", truncateFile(ArtifactModel)},
		{"truncate-rates", truncateFile(artifactRates)},
		{"truncate-manifest", truncateFile("MANIFEST")},
		{"flip-bit-manifest", flipByte("MANIFEST")},
		{"delete-artifact", func(t *testing.T, genDir string) {
			if err := os.Remove(filepath.Join(genDir, ArtifactModel)); err != nil {
				t.Fatal(err)
			}
		}},
		{"delete-manifest", func(t *testing.T, genDir string) {
			if err := os.Remove(filepath.Join(genDir, "MANIFEST")); err != nil {
				t.Fatal(err)
			}
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			s, err := Open(dir)
			if err != nil {
				t.Fatal(err)
			}
			gen1 := commitGen(t, s, goodArtifacts)
			gen2 := commitGen(t, s, map[string][]byte{
				ArtifactModel: netBytes(t, testNet(t, 8)),
				artifactRates: []byte("generation-two-rates"),
			})
			tc.corrupt(t, filepath.Join(dir, genDirName(gen2)))

			s2, err := Open(dir)
			if err != nil {
				t.Fatal(err)
			}
			g, err := s2.Latest()
			if err != nil {
				t.Fatalf("latest after corruption: %v", err)
			}
			if g.Number != gen1 {
				t.Fatalf("rolled back to generation %d, want %d", g.Number, gen1)
			}
			for name, want := range goodArtifacts {
				got, err := g.Bytes(name)
				if err != nil {
					t.Fatalf("read %q: %v", name, err)
				}
				if !bytes.Equal(got, want) {
					t.Fatalf("artifact %q not bit-identical after rollback", name)
				}
			}
			st := s2.Stats()
			if st.CorruptGenerations != 1 || st.Rollbacks != 1 {
				t.Fatalf("stats = %+v, want 1 corrupt / 1 rollback", st)
			}
			// The bad generation is quarantined, not reusable: a new commit
			// gets a fresh number and the corrupt dir survives.
			if _, err := os.Stat(filepath.Join(dir, corruptPrefix+genDirName(gen2))); err != nil {
				t.Fatalf("corrupt generation not quarantined: %v", err)
			}
			gen3 := commitGen(t, s2, goodArtifacts)
			if gen3 <= gen2 {
				t.Fatalf("new generation %d reuses quarantined number %d", gen3, gen2)
			}
		})
	}
}

func flipByte(name string) func(t *testing.T, genDir string) {
	return func(t *testing.T, genDir string) {
		t.Helper()
		path := filepath.Join(genDir, name)
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		data[len(data)/2] ^= 0x40
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
}

func truncateFile(name string) func(t *testing.T, genDir string) {
	return func(t *testing.T, genDir string) {
		t.Helper()
		path := filepath.Join(genDir, name)
		info, err := os.Stat(path)
		if err != nil {
			t.Fatal(err)
		}
		if err := os.Truncate(path, info.Size()/2); err != nil {
			t.Fatal(err)
		}
	}
}

// A crash mid-commit leaves only a tmp- directory; Open sweeps it and
// the previous generation still serves.
func TestCrashMidCommitSweepsTmp(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	gen1 := commitGen(t, s, map[string][]byte{ArtifactModel: []byte("v1")})

	// Simulate the crash: stage artifacts but never commit.
	txn, err := s.Begin()
	if err != nil {
		t.Fatal(err)
	}
	if err := txn.Put(ArtifactModel, []byte("half-written")); err != nil {
		t.Fatal(err)
	}
	// Process dies here — txn neither committed nor aborted.

	s2, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if s2.Stats().TmpSwept != 1 {
		t.Fatalf("TmpSwept = %d, want 1", s2.Stats().TmpSwept)
	}
	entries, _ := os.ReadDir(dir)
	for _, e := range entries {
		if strings.HasPrefix(e.Name(), tmpPrefix) {
			t.Fatalf("tmp dir %q survived Open", e.Name())
		}
	}
	g, err := s2.Latest()
	if err != nil || g.Number != gen1 {
		t.Fatalf("latest = %v, %v; want generation %d", g, err, gen1)
	}
}

func TestRetention(t *testing.T) {
	dir := t.TempDir()
	s, err := OpenKeep(dir, 2)
	if err != nil {
		t.Fatal(err)
	}
	var last int
	for i := 0; i < 5; i++ {
		last = commitGen(t, s, map[string][]byte{ArtifactModel: []byte{byte(i)}})
	}
	gens := s.listGens()
	if len(gens) != 2 || gens[1] != last || gens[0] != last-1 {
		t.Fatalf("retained generations %v, want [%d %d]", gens, last-1, last)
	}
}

func TestTxnValidation(t *testing.T) {
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	txn, err := s.Begin()
	if err != nil {
		t.Fatal(err)
	}
	defer txn.Abort()
	for _, bad := range []string{"", "MANIFEST", "..", "a/b", "sp ace", "é"} {
		if err := txn.Put(bad, []byte("x")); err == nil {
			t.Fatalf("Put(%q) accepted", bad)
		}
	}
	if err := txn.Put(ArtifactModel, []byte("x")); err != nil {
		t.Fatal(err)
	}
	if err := txn.Put(ArtifactModel, []byte("y")); err == nil {
		t.Fatal("duplicate Put accepted")
	}

	// Empty commit is rejected.
	txn2, _ := s.Begin()
	if err := txn2.Commit(); err == nil {
		t.Fatal("empty commit accepted")
	}
}

func TestGobArtifactsRoundTrip(t *testing.T) {
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	txn, _ := s.Begin()
	meta := TrainMeta{EpochsDone: 3, TotalEpochs: 10, Seed: 42}
	if err := txn.PutTrainMeta(meta); err != nil {
		t.Fatal(err)
	}
	if err := txn.Commit(); err != nil {
		t.Fatal(err)
	}
	g, err := s.Latest()
	if err != nil {
		t.Fatal(err)
	}
	got, err := g.TrainMeta()
	if err != nil {
		t.Fatal(err)
	}
	if got != meta {
		t.Fatalf("TrainMeta = %+v, want %+v", got, meta)
	}
	if g.Has(ArtifactModel) {
		t.Fatal("Has reports absent artifact")
	}
}

func TestManifestRoundTrip(t *testing.T) {
	m := &Manifest{
		Version:         SchemaVersion,
		Generation:      12,
		CreatedUnixNano: 1722945600000000000,
		Artifacts: []ArtifactInfo{
			{Name: "model", Size: 9999, CRC: 0x12ab34cd},
			{Name: "rates", Size: 0, CRC: 0},
		},
	}
	enc := m.Encode()
	got, err := ParseManifest(enc)
	if err != nil {
		t.Fatalf("parse: %v\n%s", err, enc)
	}
	if got.Generation != m.Generation || got.CreatedUnixNano != m.CreatedUnixNano ||
		len(got.Artifacts) != 2 || got.Artifacts[0] != m.Artifacts[0] || got.Artifacts[1] != m.Artifacts[1] {
		t.Fatalf("round trip mismatch: %+v", got)
	}
}

func TestManifestRejectsTampering(t *testing.T) {
	m := &Manifest{Version: SchemaVersion, Generation: 1, CreatedUnixNano: 1,
		Artifacts: []ArtifactInfo{{Name: "model", Size: 10, CRC: 0xdeadbeef}}}
	enc := m.Encode()

	cases := map[string][]byte{
		"empty":          nil,
		"no-sum":         []byte("capnn-store-manifest v1\ngeneration 1\ncreated 1\n"),
		"flipped":        append(append([]byte{}, enc[:10]...), append([]byte{enc[10] ^ 1}, enc[11:]...)...),
		"truncated":      enc[:len(enc)-3],
		"future-version": (&Manifest{Version: SchemaVersion + 1, Generation: 1, CreatedUnixNano: 1, Artifacts: []ArtifactInfo{{Name: "x", Size: 1, CRC: 1}}}).Encode(),
	}
	for name, data := range cases {
		if _, err := ParseManifest(data); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}

// A manifest copied from another generation directory is rejected
// because its embedded generation number no longer matches.
func TestManifestGenerationMismatch(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	gen1 := commitGen(t, s, map[string][]byte{ArtifactModel: []byte("one")})
	gen2 := commitGen(t, s, map[string][]byte{ArtifactModel: []byte("one")})
	src := filepath.Join(dir, genDirName(gen1), manifestName)
	dst := filepath.Join(dir, genDirName(gen2), manifestName)
	data, err := os.ReadFile(src)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(dst, data, 0o644); err != nil {
		t.Fatal(err)
	}
	g, err := s.Latest()
	if err != nil || g.Number != gen1 {
		t.Fatalf("latest = %v, %v; want rollback to %d", g, err, gen1)
	}
}
