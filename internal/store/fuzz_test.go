package store

import (
	"encoding/binary"
	"hash/crc32"
	"testing"

	"github.com/amuse/smc/internal/wire"
)

// segmentFile builds the bytes of a segment file holding the given
// record payloads, framed exactly as the log writes them.
func segmentFile(epoch, base uint64, payloads ...[]byte) []byte {
	raw := make([]byte, segHeaderLen)
	copy(raw, segMagic)
	raw[4] = segVersion
	binary.BigEndian.PutUint64(raw[5:13], epoch)
	binary.BigEndian.PutUint64(raw[13:21], base)
	for _, p := range payloads {
		raw = binary.AppendUvarint(raw, uint64(len(p)))
		raw = append(raw, p...)
		raw = binary.BigEndian.AppendUint32(raw, crc32.Checksum(p, castagnoli))
	}
	return raw
}

// FuzzReadSegment feeds arbitrary bytes to segment-file recovery
// (readSegment is os.ReadFile + parseSegment). Nothing may panic, and
// every record recovery keeps must be one the log could have written:
// records are contiguous from the start of the body, each payload sits
// right behind its own length prefix and in front of a matching CRC-32C,
// and the kept bytes end exactly at the last record.
func FuzzReadSegment(f *testing.F) {
	one := wire.AppendEvent(nil, mkEvent(1, "a"))
	two := wire.AppendEvent(nil, mkEvent(2, "bb"))
	good := segmentFile(7, 1, one, two)
	f.Add(good)
	f.Add(good[:len(good)-3])     // torn CRC
	f.Add(good[:segHeaderLen])    // header only
	f.Add(good[:segHeaderLen-1])  // short header
	f.Add(segmentFile(7, 1, nil)) // empty payload
	flipped := append([]byte(nil), good...)
	flipped[segHeaderLen+5] ^= 0xFF // payload bit flip: CRC mismatch
	f.Add(flipped)
	// A length prefix near 2^64 once wrapped the int bounds check.
	huge := append(segmentFile(7, 1), 0xF8, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0x01)
	f.Add(append(huge, make([]byte, 16)...))

	f.Fuzz(func(t *testing.T, raw []byte) {
		seg, _, err := parseSegment(raw)
		if err != nil {
			return
		}
		off := 0
		for i, rb := range seg.recs {
			n, sz := binary.Uvarint(seg.buf[off:])
			if sz <= 0 || off+sz != int(rb.off) || n != uint64(rb.n) {
				t.Fatalf("record %d: length prefix at %d does not frame payload %+v", i, off, rb)
			}
			end := int(rb.off) + int(rb.n)
			if end+4 > len(seg.buf) {
				t.Fatalf("record %d: runs past the kept bytes", i)
			}
			pay := seg.buf[rb.off:end]
			if crc32.Checksum(pay, castagnoli) != binary.BigEndian.Uint32(seg.buf[end:end+4]) {
				t.Fatalf("record %d: kept with a bad CRC", i)
			}
			off = end + 4
		}
		if off != len(seg.buf) {
			t.Fatalf("kept %d bytes, records end at %d", len(seg.buf), off)
		}
	})
}
