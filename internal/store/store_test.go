package store

import (
	"bytes"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"capnn/internal/nn"
)

func netBytes(t testing.TB, seed int64) []byte {
	t.Helper()
	net, err := nn.NewBuilder(1, 6, 6, seed).Conv(3).ReLU().Flatten().Dense(4).Build()
	if err != nil {
		t.Fatalf("build net: %v", err)
	}
	var buf bytes.Buffer
	if err := nn.Save(&buf, net); err != nil {
		t.Fatalf("save: %v", err)
	}
	return buf.Bytes()
}

func mustWrite(t *testing.T, path string, body []byte) {
	t.Helper()
	if err := WriteFile(path, body); err != nil {
		t.Fatal(err)
	}
}

func mustRead(t *testing.T, path string, want []byte) {
	t.Helper()
	got, err := ReadFile(path)
	if err != nil {
		t.Fatalf("read %s: %v", path, err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("read %s: got %q, want %q", path, got, want)
	}
}

// names lists dir's entries.
func names(t *testing.T, dir string) string {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var out []string
	for _, e := range entries {
		out = append(out, e.Name())
	}
	sort.Strings(out)
	return strings.Join(out, " ")
}

// A body reads back as written, through a fresh read as a restarted
// process would make, and the body it replaced stays in path.prev.
func TestCommitAndReload(t *testing.T) {
	path := filepath.Join(t.TempDir(), "checkpoint")
	model := netBytes(t, 1)
	mustWrite(t, path, model)
	mustRead(t, path, model)
	body, _ := ReadFile(path)
	if _, err := nn.Load(bytes.NewReader(body)); err != nil {
		t.Fatalf("decode model: %v", err)
	}
	mustWrite(t, path, []byte{})
	mustRead(t, path, []byte{})
	mustRead(t, path+".prev", model)
}

func TestEmptyStore(t *testing.T) {
	path := filepath.Join(t.TempDir(), "ring")
	if _, err := ReadFile(path); !errors.Is(err, fs.ErrNotExist) {
		t.Fatalf("read of a path never written: %v, want fs.ErrNotExist", err)
	}
}

// One rollback slot: however many writes, the directory holds the last
// body and the one before it, and nothing else.
func TestRetention(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "checkpoint")
	for i := byte(0); i < 5; i++ {
		mustWrite(t, path, []byte{i})
	}
	if got := names(t, dir); got != "checkpoint checkpoint.prev" {
		t.Fatalf("directory holds %q", got)
	}
	mustRead(t, path, []byte{4})
	mustRead(t, path+".prev", []byte{3})
}

// Every state a crash between two steps of WriteFile can leave, built by
// hand, reads as the old body or the new one — never a torn one, and
// never nothing once a body was committed.
func TestCrashMidWrite(t *testing.T) {
	old, fresh := []byte("old body"), []byte("new body")
	torn := frame(fresh)[:headerSize+3]
	put := func(t *testing.T, path string, raw []byte) {
		if err := os.WriteFile(path, raw, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	cases := []struct {
		name  string
		build func(t *testing.T, p string)
		want  []byte // nil: nothing was committed
		after string // the directory once read
	}{
		{"tmp-torn", func(t *testing.T, p string) { put(t, p+".tmp", torn) }, nil, "f.tmp"},
		{"tmp-complete", func(t *testing.T, p string) { put(t, p+".tmp", frame(fresh)) }, fresh, "f"},
		{"path+tmp-torn", func(t *testing.T, p string) {
			put(t, p, frame(old))
			put(t, p+".tmp", torn)
		}, old, "f f.tmp"},
		{"path+tmp-complete", func(t *testing.T, p string) {
			put(t, p, frame(old))
			put(t, p+".tmp", frame(fresh))
		}, old, "f f.tmp"},
		{"prev+tmp", func(t *testing.T, p string) { // between the two renames
			put(t, p+".prev", frame(old))
			put(t, p+".tmp", frame(fresh))
		}, fresh, "f f.prev"},
		{"path+prev", func(t *testing.T, p string) {
			put(t, p+".prev", frame(old))
			put(t, p, frame(fresh))
		}, fresh, "f f.prev"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			path := filepath.Join(dir, "f")
			tc.build(t, path)
			got, err := ReadFile(path)
			switch {
			case tc.want == nil && !errors.Is(err, fs.ErrNotExist):
				t.Fatalf("got %q, %v; want fs.ErrNotExist", got, err)
			case tc.want != nil && (err != nil || !bytes.Equal(got, tc.want)):
				t.Fatalf("got %q, %v; want %q", got, err, tc.want)
			}
			if got := names(t, dir); got != tc.after {
				t.Fatalf("after the read the directory holds %q, want %q", got, tc.after)
			}
			// The next write commits over whatever the crash left.
			mustWrite(t, path, []byte("next"))
			mustRead(t, path, []byte("next"))
		})
	}
}

// Damage to path is refused with an error that names it, and the body
// it replaced is still in path.prev, bit for bit, for a caller that may
// roll back.
func TestCorruptionRollsBack(t *testing.T) {
	edit := func(f func(raw []byte) []byte) func(t *testing.T, path string) {
		return func(t *testing.T, path string) {
			raw, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(path, f(raw), 0o644); err != nil {
				t.Fatal(err)
			}
		}
	}
	cases := []struct {
		name    string
		corrupt func(t *testing.T, path string)
		reason  string
	}{
		{"flip-bit-model", edit(func(raw []byte) []byte { raw[len(raw)/2] ^= 0x10; return raw }), "CRC-32C"},
		{"truncate-model", edit(func(raw []byte) []byte { return raw[:len(raw)-1] }), "body bytes"},
		{"truncate-header", edit(func(raw []byte) []byte { return raw[:headerSize-1] }), "header"},
		{"wrong-magic", edit(func(raw []byte) []byte { raw[0] = 'X'; return raw }), "header"},
		{"newer-version", edit(func(raw []byte) []byte { raw[4] = version + 1; return raw }), "version 2"},
		{"wrong-length", edit(func(raw []byte) []byte {
			binary.LittleEndian.PutUint64(raw[8:], uint64(len(raw)-headerSize+1))
			return raw
		}), "body bytes"},
		{"flip-bit-crc", edit(func(raw []byte) []byte { raw[16] ^= 1; return raw }), "CRC-32C"},
		{"delete-artifact", func(t *testing.T, path string) {
			if err := os.Remove(path); err != nil {
				t.Fatal(err)
			}
		}, "missing beside"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			path := filepath.Join(t.TempDir(), "checkpoint")
			old := netBytes(t, 7)
			mustWrite(t, path, old)
			mustWrite(t, path, netBytes(t, 8))
			tc.corrupt(t, path)
			got, err := ReadFile(path)
			if !errors.Is(err, ErrCorrupt) || !strings.Contains(err.Error(), path) || !strings.Contains(err.Error(), tc.reason) {
				t.Fatalf("read of damaged file: %q, %v; want ErrCorrupt naming %s and %q", got, err, path, tc.reason)
			}
			mustRead(t, path+".prev", old)
		})
	}
}

// FuzzReadFile throws arbitrary bytes at the header check. Nothing may
// panic, and a body that passes must be what the header describes —
// its length and its CRC — so writing it again gives back the input.
func FuzzReadFile(f *testing.F) {
	for _, body := range [][]byte{nil, []byte("x"), netBytes(f, 3)} {
		f.Add(frame(body))
	}
	f.Add([]byte(magic))
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, raw []byte) {
		body, err := check("fuzz", raw)
		if err != nil {
			if !errors.Is(err, ErrCorrupt) {
				t.Fatalf("refusal %v does not wrap ErrCorrupt", err)
			}
			return
		}
		if sum := crc32.Checksum(body, castagnoli); sum != binary.LittleEndian.Uint32(raw[16:]) {
			t.Fatalf("accepted a body with CRC %08x under header %x", sum, raw[:headerSize])
		}
		if !bytes.Equal(frame(body), raw) {
			t.Fatalf("accepted file does not round-trip:\n in: %x\nout: %x", raw, frame(body))
		}
	})
}
