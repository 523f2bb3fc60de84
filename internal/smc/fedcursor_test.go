package smc

import (
	"bytes"
	"encoding/binary"
	"hash/crc32"
	"os"
	"path/filepath"
	"testing"
)

// FuzzFedCursor feeds arbitrary bytes to the federation cursor file
// reader. Nothing may panic; a position is read back only from exactly
// 25 bytes with the SMFC magic, version 1 and a matching CRC-32C, and
// every (epoch, cursor) survives a write and a read.
func FuzzFedCursor(f *testing.F) {
	path := filepath.Join(f.TempDir(), "link.fedcursor")
	if err := writeFedCursor(path, 7, 99); err != nil {
		f.Fatal(err)
	}
	good, err := os.ReadFile(path)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(good, uint64(7), uint64(99))
	f.Add(good[:fedCursorLen-1], uint64(0), uint64(0))
	f.Add(append(good, 0), ^uint64(0), ^uint64(0))
	f.Add([]byte{}, uint64(1), uint64(0))

	f.Fuzz(func(t *testing.T, raw []byte, epoch, cursor uint64) {
		if err := os.WriteFile(path, raw, 0o644); err != nil {
			t.Fatal(err)
		}
		e, c, ok := readFedCursor(path)
		valid := len(raw) == fedCursorLen &&
			bytes.HasPrefix(raw, []byte(fedCursorMagic)) && raw[4] == fedCursorVersion &&
			crc32.Checksum(raw[:21], fedCursorCRC) == binary.BigEndian.Uint32(raw[21:])
		if ok != valid {
			t.Fatalf("readFedCursor ok=%v for %x, want %v", ok, raw, valid)
		}
		if ok && (e != binary.BigEndian.Uint64(raw[5:13]) || c != binary.BigEndian.Uint64(raw[13:21])) {
			t.Fatalf("readFedCursor(%x) = (%d, %d)", raw, e, c)
		}

		if err := writeFedCursor(path, epoch, cursor); err != nil {
			t.Fatal(err)
		}
		if e, c, ok := readFedCursor(path); !ok || e != epoch || c != cursor {
			t.Fatalf("round trip of (%d, %d): got (%d, %d) ok=%v", epoch, cursor, e, c, ok)
		}
	})
}
