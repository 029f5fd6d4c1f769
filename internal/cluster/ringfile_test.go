package cluster

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"capnn/internal/cloud"
	"capnn/internal/serve"
	"capnn/internal/store"
)

// readRingFile decodes the ring view stored at path.
func readRingFile(t *testing.T, path string) serve.RingUpdate {
	t.Helper()
	body, err := store.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var u serve.RingUpdate
	if err := u.DecodeWire(body); err != nil {
		t.Fatalf("%s: %v", path, err)
	}
	return u
}

// routeAll routes one request for each of n users and counts the
// answers by code.
func routeAll(t *testing.T, g *Gateway, n int) map[cloud.Code]int {
	t.Helper()
	f := getClusterFixture(t)
	codes := map[cloud.Code]int{}
	for u := 0; u < n; u++ {
		codes[g.Route(f.inferRequest(u, u)).Code]++
	}
	return codes
}

// TestRingFileFailsClosed: a gateway with a state directory runs on
// fenced shards, takes a join (epoch 2) and stops. A corrupt ring file
// then stops the next gateway at UseStore with the file's name, even
// though ring.prev holds an intact epoch-1 ring: every fence already
// holds epoch 2, and a gateway on the epoch-1 ring would have every
// request it routes bounced as ring-changed. The intact epoch-2 file
// restores and serves.
func TestRingFileFailsClosed(t *testing.T) {
	nodes := startTestNodes(t, 3)
	fences := wireFences(nodes)
	dir := t.TempDir()
	path := filepath.Join(dir, "ring")
	cfg := testGWConfig()
	cfg.Seed = 11

	g1, err := NewGateway(nodeAddrs(nodes[:2]), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if restored, err := g1.UseStore(dir); err != nil || restored {
		t.Fatalf("fresh state directory: restored=%v err=%v", restored, err)
	}
	// A missing file starts fresh and persists the initial ring.
	if u := readRingFile(t, path); u.Epoch != 1 || len(u.Members) != 2 || u.Seed != 11 || u.You != "" {
		t.Fatalf("initial ring file holds %+v", u)
	}
	if err := g1.AddNode(nodes[2].addr); err != nil {
		t.Fatal(err)
	}
	if codes := routeAll(t, g1, 8); codes[cloud.CodeOK] != 8 {
		t.Fatalf("epoch-2 gateway answered %v", codes)
	}
	if err := g1.Shutdown(time.Second); err != nil {
		t.Fatal(err)
	}
	for addr, fence := range fences {
		if fence.Epoch() != 2 {
			t.Fatalf("fence of %s at epoch %d, want 2", addr, fence.Epoch())
		}
	}
	if u := readRingFile(t, path); u.Epoch != 2 || len(u.Members) != 3 {
		t.Fatalf("ring file holds %+v after the join", u)
	}
	stale := readRingFile(t, path+".prev")
	if stale.Epoch != 1 {
		t.Fatalf("ring.prev holds epoch %d, want 1", stale.Epoch)
	}
	intact, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}

	// Restart on a corrupt ring file: refused, and nothing of either
	// file loads — the gateway keeps its own boot ring (seed 99, one
	// member) and no shard hears from it.
	corrupt := append([]byte(nil), intact...)
	corrupt[len(corrupt)-1] ^= 0x01
	if err := os.WriteFile(path, corrupt, 0o644); err != nil {
		t.Fatal(err)
	}
	cfg2 := testGWConfig()
	cfg2.Seed = 99
	g2, err := NewGateway(nodeAddrs(nodes[:1]), cfg2)
	if err != nil {
		t.Fatal(err)
	}
	defer g2.Close()
	if _, err := g2.UseStore(dir); err == nil || !strings.Contains(err.Error(), path) {
		t.Fatalf("UseStore on a corrupt ring file: %v, want an error naming %s", err, path)
	}
	if r := g2.Ring(); r.Seed() != 99 || r.Len() != 1 {
		t.Fatalf("refused gateway runs seed %d over %v: a stored ring loaded", r.Seed(), r.Nodes())
	}
	for addr, fence := range fences {
		if fence.Epoch() != 2 {
			t.Fatalf("fence of %s moved to epoch %d", addr, fence.Epoch())
		}
	}

	// What a rollback would have served: the epoch-1 ring, behind every
	// fence.
	g3, err := NewGateway(nodeAddrs(nodes[:1]), testGWConfig())
	if err != nil {
		t.Fatal(err)
	}
	defer g3.Close()
	if err := g3.restoreRing(stale); err != nil {
		t.Fatal(err)
	}
	if codes := routeAll(t, g3, 8); codes[cloud.CodeRingChanged] != 8 {
		t.Fatalf("a gateway on the rolled-back ring answered %v, want 8 ring-changed", codes)
	}

	// The intact file restores epoch 2 and serves.
	if err := os.WriteFile(path, intact, 0o644); err != nil {
		t.Fatal(err)
	}
	g4, err := NewGateway(nodeAddrs(nodes[:1]), testGWConfig())
	if err != nil {
		t.Fatal(err)
	}
	defer g4.Close()
	if restored, err := g4.UseStore(dir); err != nil || !restored {
		t.Fatalf("intact ring file: restored=%v err=%v", restored, err)
	}
	if r := g4.Ring(); r.Epoch() != 2 || r.Len() != 3 || r.Seed() != 11 {
		t.Fatalf("restored ring: epoch %d, seed %d, members %v", r.Epoch(), r.Seed(), r.Nodes())
	}
	if codes := routeAll(t, g4, 8); codes[cloud.CodeOK] != 8 {
		t.Fatalf("restored gateway answered %v", codes)
	}
}

// TestRingChangeRefusedWhenUnwritable: a join or leave is on disk
// before any shard sees it. When the ring file cannot be written — a
// directory stands at its path — AddNode and RemoveNode return an error
// and leave the ring, the nodes map and every fence where they were.
func TestRingChangeRefusedWhenUnwritable(t *testing.T) {
	nodes := startTestNodes(t, 4)
	fences := wireFences(nodes)
	dir := t.TempDir()
	g, err := NewGateway(nodeAddrs(nodes[:2]), testGWConfig())
	if err != nil {
		t.Fatal(err)
	}
	defer g.Close()
	if _, err := g.UseStore(dir); err != nil {
		t.Fatal(err)
	}
	if err := g.AddNode(nodes[2].addr); err != nil { // epoch 2; ring.prev now exists
		t.Fatal(err)
	}
	path := filepath.Join(dir, "ring")
	if err := os.Remove(path); err != nil {
		t.Fatal(err)
	}
	if err := os.Mkdir(path, 0o755); err != nil {
		t.Fatal(err)
	}
	want := map[string]uint64{}
	for addr, fence := range fences {
		want[addr] = fence.Epoch()
	}

	if err := g.AddNode(nodes[3].addr); err == nil {
		t.Fatal("join accepted with an unwritable ring file")
	}
	if err := g.RemoveNode(nodes[2].addr); err == nil {
		t.Fatal("leave accepted with an unwritable ring file")
	}
	if r := g.Ring(); r.Epoch() != 2 || r.Len() != 3 {
		t.Fatalf("refused changes moved the ring: epoch %d, members %v", r.Epoch(), r.Nodes())
	}
	if ns := g.Stats().Nodes; len(ns) != 3 {
		t.Fatalf("refused changes left nodes %v", ns)
	}
	for addr, fence := range fences {
		if fence.Epoch() != want[addr] {
			t.Fatalf("fence of %s moved from epoch %d to %d", addr, want[addr], fence.Epoch())
		}
	}
}
