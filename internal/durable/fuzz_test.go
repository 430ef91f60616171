package durable

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/storage"
)

// FuzzSnapshotDecode feeds arbitrary bytes to the strict snapshot
// decoder. The contract under attack: corrupt input yields a clean
// error — never a panic. Accepted version-2 input re-encodes to the
// same bytes, so the decoder can have read no state the bytes do not
// pin down; accepted version-1 input re-encodes to version-2 bytes that
// decode to the same header, database, seeds and ranks.
func FuzzSnapshotDecode(f *testing.F) {
	real, err := EncodeSnapshot(testSnapshot(42))
	if err != nil {
		f.Fatal(err)
	}
	f.Add(real)
	f.Add([]byte{})
	f.Add([]byte(snapMagic))
	f.Add(real[:len(real)-3])       // truncated end marker
	f.Add(append(real, 0, 0, 0, 0)) // trailing garbage
	flipped := append([]byte(nil), real...)
	flipped[len(flipped)/2] ^= 0x40 // CRC-detectable bitflip
	f.Add(flipped)
	// Version 1, ranks included, and the ranked version-2 golden file.
	seeds, _ := filepath.Glob(filepath.Join("..", "serve", "testdata", "datadir-v1", "*", "*"+SnapSuffix))
	seeds = append(seeds, filepath.Join("testdata", "snapshot-v1.dlsn"), filepath.Join("testdata", "snapshot-v2.dlsn"))
	for _, path := range seeds {
		b, err := os.ReadFile(path)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(b)
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		snap, err := DecodeSnapshot(data)
		if err != nil {
			return
		}
		re, err := EncodeSnapshot(snap)
		if err != nil {
			t.Fatalf("decoded snapshot failed to re-encode: %v", err)
		}
		if data[len(snapMagic)-1] == 2 && !bytes.Equal(re, data) {
			t.Fatal("an accepted version-2 snapshot re-encodes to different bytes")
		}
		again, err := DecodeSnapshot(re)
		if err != nil {
			t.Fatalf("re-encoded snapshot failed to decode: %v", err)
		}
		m1, _ := json.Marshal(snap.Meta)
		m2, _ := json.Marshal(again.Meta)
		if !bytes.Equal(m1, m2) {
			t.Fatalf("header changed across a round trip: %s vs %s", m1, m2)
		}
		if !snap.DB.Equal(again.DB) {
			t.Fatal("snapshot database changed across a round trip")
		}
		if len(snap.Seed) != len(again.Seed) {
			t.Fatalf("%d seed relations became %d", len(snap.Seed), len(again.Seed))
		}
		for p, rel := range snap.Seed {
			if !sameTuplesAndRanks(rel, again.Seed[p]) {
				t.Fatalf("seed relation %s changed across a round trip", p)
			}
		}
		for _, p := range snap.DB.Preds() {
			if !sameTuplesAndRanks(snap.DB.Relation(p), again.DB.Relation(p)) {
				t.Fatalf("relation %s changed across a round trip", p)
			}
		}
	})
}

// sameTuplesAndRanks reports whether b holds a's tuples, each with its
// rank, and no others.
func sameTuplesAndRanks(a, b *storage.Relation) bool {
	if b == nil || a.Len() != b.Len() {
		return false
	}
	for pos := 0; pos < a.Len(); pos++ {
		t := a.At(pos)
		if !b.Contains(t) || rankOf(a, t) != rankOf(b, t) {
			return false
		}
	}
	return true
}

// FuzzWALDecode feeds arbitrary bytes to the WAL segment scanner. The
// contract: never panic, the valid prefix never exceeds the input, and
// rescanning exactly that prefix reproduces the same batches — the
// definition of "torn tail handling is a clean truncation".
func FuzzWALDecode(f *testing.F) {
	seg := []byte(walMagic)
	for seq := uint64(1); seq <= 3; seq++ {
		b := &Batch{Seq: seq, Ins: map[string][]storage.Tuple{"edge": {tup("a", "b"), tup("b", "c")}}}
		seg = appendFrame(seg, EncodeBatch(b))
	}
	f.Add(seg)
	f.Add(seg[:len(seg)-4]) // torn final record
	f.Add([]byte(walMagic))
	f.Add([]byte{})
	dmg := append([]byte(nil), seg...)
	dmg[len(dmg)-2] ^= 0x01 // corrupt final CRC
	f.Add(dmg)

	f.Fuzz(func(t *testing.T, data []byte) {
		batches, validLen, err := ScanSegment(data)
		if err != nil {
			if len(batches) != 0 || validLen != 0 {
				t.Fatalf("error scan still reported %d batches, validLen %d", len(batches), validLen)
			}
			return
		}
		if validLen < 0 || validLen > int64(len(data)) {
			t.Fatalf("validLen %d out of range [0, %d]", validLen, len(data))
		}
		again, againLen, err := ScanSegment(data[:validLen])
		if err != nil {
			t.Fatalf("rescan of valid prefix failed: %v", err)
		}
		if againLen != validLen || len(again) != len(batches) {
			t.Fatalf("rescan of valid prefix: %d batches / len %d, first scan %d / %d",
				len(again), againLen, len(batches), validLen)
		}
		for i, b := range batches {
			if !bytes.Equal(EncodeBatch(b), EncodeBatch(again[i])) {
				t.Fatalf("batch %d differs between scans", i)
			}
		}
	})
}
