// Package store keeps the state a CAP'NN binary must not lose to a
// kill -9: capnn-gateway's ring. It is one file, replaced whole by
// WriteFile and checked by ReadFile:
//
//	magic "CPNS" | version u32 | body length u64 | CRC-32C of body u32 | body
//
// (integers little-endian). WriteFile writes path.tmp and fsyncs it,
// renames path to path.prev, renames path.tmp to path, then fsyncs the
// directory: a crash at any point leaves the old body or the new one
// readable, never a torn one. path.prev keeps the body replaced last, so
// ReadFile can tell a file lost mid-write from a fresh start; the store
// never reads it back on its own.
package store

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io/fs"
	"os"
	"path/filepath"
)

const (
	magic      = "CPNS"
	version    = 1
	headerSize = 20
)

// ErrCorrupt is wrapped by every ReadFile error about a file that exists
// but is not a complete body this package wrote.
var ErrCorrupt = errors.New("corrupt")

var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// WriteFile atomically replaces the body at path, keeping the body it
// replaces as path.prev. It returns only once the new body is durable.
func WriteFile(path string, body []byte) error {
	tmp := path + ".tmp"
	if err := writeSynced(tmp, body); err != nil {
		return fmt.Errorf("store: %w", err)
	}
	if err := os.Rename(path, path+".prev"); err != nil && !errors.Is(err, fs.ErrNotExist) {
		return fmt.Errorf("store: %w", err)
	}
	if err := os.Rename(tmp, path); err != nil {
		return fmt.Errorf("store: %w", err)
	}
	return syncDir(filepath.Dir(path))
}

// ReadFile returns the body WriteFile last committed at path. Its error
// wraps fs.ErrNotExist only when nothing was ever committed there, and
// ErrCorrupt when path fails its check. The states a crash inside
// WriteFile can leave read as:
//
//	path.tmp alone         the new body if path.tmp is complete, else fs.ErrNotExist
//	path + path.tmp        the old body, from path
//	path.prev + path.tmp   the new body: ReadFile finishes the second rename
//	path + path.prev       the new body, from path
func ReadFile(path string) ([]byte, error) {
	body, err := readChecked(path)
	if !errors.Is(err, fs.ErrNotExist) {
		return body, err
	}
	// Past WriteFile's fsync path.tmp is complete, and only between the
	// two renames is path missing while it is.
	tmp := path + ".tmp"
	if body, terr := readChecked(tmp); terr == nil {
		if err := os.Rename(tmp, path); err != nil {
			return nil, fmt.Errorf("store: %w", err)
		}
		if err := syncDir(filepath.Dir(path)); err != nil {
			return nil, err
		}
		return body, nil
	}
	if _, perr := os.Stat(path + ".prev"); perr == nil {
		return nil, fmt.Errorf("store: %s: %w: missing beside %s.prev", path, ErrCorrupt, filepath.Base(path))
	}
	return nil, err
}

func readChecked(path string) ([]byte, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("store: %w", err)
	}
	return check(path, raw)
}

// check returns the body of raw, the bytes of the file at path, or the
// reason they are not a file writeSynced wrote.
func check(path string, raw []byte) ([]byte, error) {
	refuse := func(format string, args ...any) ([]byte, error) {
		return nil, fmt.Errorf("store: %s: %w: %s", path, ErrCorrupt, fmt.Sprintf(format, args...))
	}
	if len(raw) < headerSize || string(raw[:4]) != magic {
		return refuse("no %q header", magic)
	}
	if v := binary.LittleEndian.Uint32(raw[4:]); v != version {
		return refuse("version %d, this build reads %d", v, version)
	}
	body := raw[headerSize:]
	if n := binary.LittleEndian.Uint64(raw[8:]); n != uint64(len(body)) {
		return refuse("header says %d body bytes, the file holds %d", n, len(body))
	}
	if sum, want := crc32.Checksum(body, castagnoli), binary.LittleEndian.Uint32(raw[16:]); sum != want {
		return refuse("body CRC-32C %08x, header says %08x", sum, want)
	}
	return body, nil
}

// frame is body behind its header.
func frame(body []byte) []byte {
	b := make([]byte, headerSize, headerSize+len(body))
	copy(b, magic)
	binary.LittleEndian.PutUint32(b[4:], version)
	binary.LittleEndian.PutUint64(b[8:], uint64(len(body)))
	binary.LittleEndian.PutUint32(b[16:], crc32.Checksum(body, castagnoli))
	return append(b, body...)
}

// writeSynced writes body behind its header to path and fsyncs the file.
func writeSynced(path string, body []byte) error {
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return err
	}
	_, err = f.Write(frame(body))
	if err == nil {
		err = f.Sync()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}

// syncDir fsyncs a directory so the renames within it are durable.
// Filesystems that refuse fsync on a directory are let through.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return fmt.Errorf("store: %w", err)
	}
	err = d.Sync()
	if cerr := d.Close(); err == nil {
		err = cerr
	}
	if err != nil && !errors.Is(err, errors.ErrUnsupported) {
		return fmt.Errorf("store: %w", err)
	}
	return nil
}
