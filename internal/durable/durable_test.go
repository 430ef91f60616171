package durable

import (
	"bytes"
	"encoding/json"
	"reflect"
	"strings"
	"testing"

	"repro/internal/ast"
	"repro/internal/storage"
)

func tup(vals ...any) storage.Tuple {
	t := make(storage.Tuple, len(vals))
	for i, v := range vals {
		switch x := v.(type) {
		case int:
			t[i] = storage.InternInt(int64(x))
		case string:
			t[i] = storage.InternSym(x)
		default:
			panic("bad test term")
		}
	}
	return t
}

func testSnapshot(seq uint64) *Snapshot {
	db := storage.NewDatabase()
	db.Add("edge", ast.Sym("a"), ast.Sym("b"))
	db.Add("edge", ast.Sym("b"), ast.Sym("c"))
	db.Add("tc", ast.Sym("a"), ast.Sym("b"))
	db.Add("num", ast.Int(-7))
	seed := map[string]*storage.Relation{}
	sr := storage.NewRelation("tc", 2)
	sr.Insert(tup("a", "b"))
	seed["tc"] = sr
	return &Snapshot{
		Meta: Meta{
			Session:    "test",
			Seq:        seq,
			Program:    "tc(X,Y) :- edge(X,Y).",
			Active:     "tc(X,Y) :- edge(X,Y).",
			Rules:      1,
			Generation: 42,
		},
		DB:   db,
		Seed: seed,
	}
}

func TestSnapshotRoundTrip(t *testing.T) {
	snap := testSnapshot(9)
	b, err := EncodeSnapshot(snap)
	if err != nil {
		t.Fatal(err)
	}
	got, err := DecodeSnapshot(b)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got.Meta, snap.Meta) {
		t.Fatalf("meta mismatch: %+v vs %+v", got.Meta, snap.Meta)
	}
	if got.Meta.Seq != 9 || got.Meta.Generation != 42 {
		t.Fatalf("meta fields lost: %+v", got.Meta)
	}
	if !got.DB.Equal(snap.DB) {
		t.Fatalf("db mismatch:\n%s\nvs\n%s", got.DB, snap.DB)
	}
	if len(got.Seed) != 1 || got.Seed["tc"].Len() != 1 || !got.Seed["tc"].Contains(tup("a", "b")) {
		t.Fatalf("seed mismatch: %+v", got.Seed)
	}

	// Deterministic encoding: same state, same bytes.
	b2, err := EncodeSnapshot(got)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(b, b2) {
		t.Fatal("snapshot encoding is not deterministic")
	}
}

// TestSnapshotRanksRoundTrip: a relation's rank column travels as it
// is, zero (seed) entries included, and decodes back into the rank
// column with no rank map beside it; a frame written in place is the
// bytes appendFrame writes for the same payload.
func TestSnapshotRanksRoundTrip(t *testing.T) {
	snap := testSnapshot(9)
	snap.Meta.HasRanks = true
	tc := snap.DB.Relation("tc")
	tc.Insert(tup("a", "c"))
	tc.SetRank(tc.Pos(tup("a", "c")), 300)
	num := snap.DB.Relation("num")
	num.SetRank(0, 1)
	// Ranked, then unranked again: no rank column is written for it.
	edge := snap.DB.Relation("edge")
	edge.SetRank(0, 5)
	edge.SetRank(0, 0)

	b, err := EncodeSnapshot(snap)
	if err != nil {
		t.Fatal(err)
	}
	got, err := DecodeSnapshot(b)
	if err != nil {
		t.Fatal(err)
	}
	if !got.Meta.HasRanks || got.Ranks != nil {
		t.Fatalf("has_ranks %v, rank map %v; want true and none", got.Meta.HasRanks, got.Ranks)
	}
	for _, c := range []struct {
		pred string
		t    storage.Tuple
		rank uint32
	}{{"tc", tup("a", "b"), 0}, {"tc", tup("a", "c"), 300}, {"num", tup(-7), 1}, {"edge", tup("a", "b"), 0}} {
		if r := rankOf(got.DB.Relation(c.pred), c.t); r != c.rank {
			t.Fatalf("%s%v has rank %d, want %d", c.pred, c.t, r, c.rank)
		}
	}
	if got.DB.Relation("edge").RankColumn() != nil {
		t.Fatal("a relation with no ranked tuple decoded with a rank column")
	}
	if b2, err := EncodeSnapshot(got); err != nil || !bytes.Equal(b, b2) {
		t.Fatalf("re-encoding the decoded snapshot changed its bytes (%v)", err)
	}

	payload := []byte("R\x02tc payload")
	inPlace := appendFrameWith([]byte("prefix"), func(b []byte) []byte { return append(b, payload...) })
	if want := appendFrame([]byte("prefix"), payload); !bytes.Equal(inPlace, want) {
		t.Fatalf("frame written in place = %x, want %x", inPlace, want)
	}
}

// v2File assembles a version-2 snapshot from a meta and raw frame
// payloads, ending it with a 'Z' frame that counts the 'R' frames.
func v2File(t *testing.T, meta Meta, frames ...string) []byte {
	t.Helper()
	out := appendFrame(append([]byte(nil), snapMagic...), append([]byte{recMeta}, mustMeta(t, meta)...))
	rels := 0
	for _, f := range frames {
		out = appendFrame(out, []byte(f))
		if f[0] == recRelation {
			rels++
		}
	}
	return appendFrame(out, []byte{recEnd, byte(rels)})
}

// TestSnapshotV2RejectsNonCanonical: every way a version-2 file can
// decode to a state that would not re-encode to the same bytes is an
// error, checked against hand-built files. The well-formed file the
// cases deviate from decodes.
func TestSnapshotV2RejectsNonCanonical(t *testing.T) {
	meta := Meta{Session: "s", Seq: 1}
	// Dictionary: a, b, 5. Relation p/2 holds (a, b) and (b, 5).
	dict := "D\x03\x02\x01a\x02\x01b\x01\x0a"
	rel := "R\x00\x01p\x02\x02\x00\x01\x01\x02"
	good := v2File(t, meta, dict, rel)
	if snap, err := DecodeSnapshot(good); err != nil || snap.DB.Relation("p").Len() != 2 {
		t.Fatalf("the well-formed file: %v", err)
	}
	cases := map[string][]byte{
		"duplicate tuple":      v2File(t, meta, dict, "R\x00\x01p\x02\x03\x00\x01\x01\x02\x00\x01"),
		"index past dict":      v2File(t, meta, dict, "R\x00\x01p\x02\x02\x00\x01\x01\x03"),
		"unused entry":         v2File(t, meta, "D\x04\x02\x01a\x02\x01b\x01\x0a\x02\x01z", rel),
		"repeated entry":       v2File(t, meta, "D\x03\x02\x01a\x02\x01a\x01\x0a", rel),
		"out of first order":   v2File(t, meta, dict, "R\x00\x01p\x02\x03\x01\x00\x02\x01\x02\x00"),
		"overlong varint":      v2File(t, meta, dict, "R\x00\x01p\x82\x00\x02\x00\x01\x01\x02"),
		"rank column of zeros": v2File(t, meta, dict, "R\x02\x01p\x02\x02\x00\x01\x01\x02\x00\x00"),
		"relations unsorted":   v2File(t, meta, dict, "R\x00\x01q\x02\x01\x00\x01", "R\x00\x01p\x01\x01\x02"),
		"seed before database": v2File(t, meta, dict, "R\x01\x01p\x02\x01\x00\x01", "R\x00\x01q\x01\x01\x02"),
		"no dictionary":        v2File(t, meta, rel),
		"unknown flag":         v2File(t, meta, dict, "R\x04\x01p\x02\x02\x00\x01\x01\x02"),
		"trailing rel bytes":   v2File(t, meta, dict, rel+"\x00"),
	}
	// A header json.Marshal would not write.
	spaced := append(append([]byte(nil), snapMagic...), appendFrame(nil, []byte(`M{"session": "s","seq":1,"program":"","active":"","rules":0,"ics":0,"optimized":false,"generation":0}`))...)
	cases["spaced meta"] = append(spaced, good[len(snapMagic)+8+1+len(mustMeta(t, meta)):]...)
	// The end marker must count the relation frames.
	cases["end count"] = appendFrame(append([]byte(nil), good[:len(good)-10]...), []byte{recEnd, 2})
	for name, b := range cases {
		if _, err := DecodeSnapshot(b); err == nil {
			t.Errorf("%s: decode succeeded, want error", name)
		}
	}
}

func mustMeta(t *testing.T, m Meta) []byte {
	t.Helper()
	b, err := json.Marshal(m)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func TestSnapshotDecodeRejectsDamage(t *testing.T) {
	good, err := EncodeSnapshot(testSnapshot(1))
	if err != nil {
		t.Fatal(err)
	}
	cases := map[string][]byte{
		"empty":       {},
		"bad magic":   []byte("NOPE\x01rest"),
		"bad version": append([]byte("DLSN\x03"), good[5:]...),
		"truncated":   good[:len(good)-3],
		"trailing":    append(append([]byte(nil), good...), 0, 0, 0),
	}
	// Single flipped byte in the body must fail the CRC.
	flip := append([]byte(nil), good...)
	flip[len(flip)/2] ^= 0x40
	cases["bitflip"] = flip

	for name, b := range cases {
		if _, err := DecodeSnapshot(b); err == nil {
			t.Errorf("%s: decode succeeded, want error", name)
		}
	}
}

func TestBatchRoundTrip(t *testing.T) {
	b := &Batch{
		Seq: 17,
		Ins: map[string][]storage.Tuple{"edge": {tup("x", "y"), tup("y", "z")}},
		Del: map[string][]storage.Tuple{"num": {tup(-3)}},
	}
	got, err := DecodeBatch(EncodeBatch(b))
	if err != nil {
		t.Fatal(err)
	}
	if got.Seq != 17 || len(got.Ins["edge"]) != 2 || len(got.Del["num"]) != 1 {
		t.Fatalf("round trip mismatch: %+v", got)
	}
	if !got.Ins["edge"][1].Equal(tup("y", "z")) || !got.Del["num"][0].Equal(tup(-3)) {
		t.Fatalf("tuple mismatch: %+v", got)
	}
}

func newMemStore(t *testing.T, fs FS, fsync bool) (*Store, Options) {
	t.Helper()
	opts := Options{Dir: "data", Fsync: fsync, FS: fs}
	st, err := Open(opts, "s1")
	if err != nil {
		t.Fatal(err)
	}
	return st, opts
}

func reopen(t *testing.T, opts Options) (*Store, *RecoverResult) {
	t.Helper()
	st, err := Open(opts, "s1")
	if err != nil {
		t.Fatal(err)
	}
	res, err := st.Recover()
	if err != nil {
		t.Fatal(err)
	}
	return st, res
}

func TestStoreCheckpointAppendRecover(t *testing.T) {
	fs := newTestFS()
	st, opts := newMemStore(t, fs, true)
	fs.checkpoint(t, st, testSnapshot(0))
	for seq := uint64(1); seq <= 3; seq++ {
		b := &Batch{Seq: seq, Ins: map[string][]storage.Tuple{"edge": {tup(int(seq), int(seq+1))}}}
		if _, _, err := st.Append(b); err != nil {
			t.Fatal(err)
		}
	}
	st.Close()

	st2, res := reopen(t, opts)
	defer st2.Close()
	if res.Snapshot == nil || res.Snapshot.Meta.Seq != 0 {
		t.Fatalf("snapshot not recovered: %+v", res)
	}
	if len(res.Batches) != 3 || res.TornTail {
		t.Fatalf("want 3 batches, clean tail; got %d torn=%v", len(res.Batches), res.TornTail)
	}
	for i, b := range res.Batches {
		if b.Seq != uint64(i+1) {
			t.Fatalf("batch %d has seq %d", i, b.Seq)
		}
	}

	// Appending after recovery and recovering again keeps the chain.
	if _, _, err := st2.Append(&Batch{Seq: 4, Ins: map[string][]storage.Tuple{"edge": {tup(4, 5)}}}); err != nil {
		t.Fatal(err)
	}
	st2.Close()
	st3, res3 := reopen(t, opts)
	if len(res3.Batches) != 4 {
		t.Fatalf("after resume-append want 4 batches, got %d", len(res3.Batches))
	}
	st3.Close()

	// Recovery into an empty WAL opens a fresh segment for the next
	// append; that segment must be as durable as a checkpoint's.
	for _, n := range fs.list("data/s1") {
		if strings.HasSuffix(n, WALSuffix) {
			delete(fs.files, "data/s1/"+n)
		}
	}
	st4, res4 := reopen(t, opts)
	defer st4.Close()
	if len(res4.Batches) != 0 {
		t.Fatalf("snapshot-only directory replayed %d batches", len(res4.Batches))
	}
	if _, _, err := st4.Append(&Batch{Seq: 1, Ins: map[string][]storage.Tuple{"edge": {tup(1, 2)}}}); err != nil {
		t.Fatal(err)
	}
	fs.checkSegmentsSynced(t)
}

// TestLegacyOptimizeHeaderRecovers: checkpoints written while loads
// still took an "optimize" flag say so in their header, and the header
// is decoded strictly, so the field must stay decodable.
func TestLegacyOptimizeHeaderRecovers(t *testing.T) {
	old := testSnapshot(3)
	old.Meta.Optimize = true
	raw, err := EncodeSnapshot(old)
	if err != nil || !bytes.Contains(raw, []byte(`"optimize":true`)) {
		t.Fatalf("encode = %v; the header must carry \"optimize\":true", err)
	}
	st, opts := newMemStore(t, newTestFS(), true)
	if err := st.CheckpointRaw(raw, 3); err != nil {
		t.Fatal(err)
	}
	st.Close()
	st2, res := reopen(t, opts)
	defer st2.Close()
	if res.Snapshot == nil || res.Snapshot.Meta.Seq != 3 || !res.Snapshot.DB.Equal(old.DB) {
		t.Fatalf("legacy checkpoint not recovered: %+v", res)
	}
}

func TestStoreTornTailTruncated(t *testing.T) {
	fs := newTestFS()
	st, opts := newMemStore(t, fs, true)
	if err := st.Checkpoint(testSnapshot(0)); err != nil {
		t.Fatal(err)
	}
	for seq := uint64(1); seq <= 2; seq++ {
		if _, _, err := st.Append(&Batch{Seq: seq, Ins: map[string][]storage.Tuple{"edge": {tup(int(seq), 0)}}}); err != nil {
			t.Fatal(err)
		}
	}
	st.Close()

	// Chop bytes off the segment's end: a torn final record.
	seg := fs.onlyFileWithSuffix(t, WALSuffix)
	fs.chop(seg, 5)

	st2, res := reopen(t, opts)
	if !res.TornTail {
		t.Fatal("torn tail not detected")
	}
	if len(res.Batches) != 1 || res.Batches[0].Seq != 1 {
		t.Fatalf("want exactly batch 1 from the valid prefix, got %+v", res.Batches)
	}
	// The tail was truncated, so appending seq 2 again yields a clean log.
	if _, _, err := st2.Append(&Batch{Seq: 2, Ins: map[string][]storage.Tuple{"edge": {tup(2, 0)}}}); err != nil {
		t.Fatal(err)
	}
	st2.Close()
	st3, res3 := reopen(t, opts)
	defer st3.Close()
	if res3.TornTail || len(res3.Batches) != 2 {
		t.Fatalf("after truncate+append want clean 2 batches, got torn=%v n=%d", res3.TornTail, len(res3.Batches))
	}
}

func TestStoreAtMostOnceAndGap(t *testing.T) {
	fs := newTestFS()
	st, opts := newMemStore(t, fs, true)
	if err := st.Checkpoint(testSnapshot(0)); err != nil {
		t.Fatal(err)
	}
	for _, seq := range []uint64{1, 2, 5, 6} { // 3,4 missing: gap after 2
		if _, _, err := st.Append(&Batch{Seq: seq, Ins: map[string][]storage.Tuple{"edge": {tup(int(seq), 0)}}}); err != nil {
			t.Fatal(err)
		}
	}
	// Take a mid-log checkpoint at seq 1 WITHOUT rotating by writing the
	// snapshot file directly — records 1 must then be skipped on replay.
	b, err := EncodeSnapshot(testSnapshot(1))
	if err != nil {
		t.Fatal(err)
	}
	fs.write("data/s1/"+snapName(1), b)
	st.Close()

	_, res := reopen(t, opts)
	if res.Snapshot.Meta.Seq != 1 {
		t.Fatalf("newest snapshot not chosen: %+v", res.Snapshot.Meta)
	}
	if res.SkippedBatches != 1 {
		t.Fatalf("want 1 skipped (at-most-once), got %d", res.SkippedBatches)
	}
	if len(res.Batches) != 1 || res.Batches[0].Seq != 2 {
		t.Fatalf("want only batch 2 (gap at 3), got %+v", res.Batches)
	}
	if res.DroppedBatches != 2 {
		t.Fatalf("want 2 dropped past the gap, got %d", res.DroppedBatches)
	}
}

func TestStoreCorruptNewestSnapshotFallsBack(t *testing.T) {
	fs := newTestFS()
	st, opts := newMemStore(t, fs, true)
	if err := st.Checkpoint(testSnapshot(0)); err != nil {
		t.Fatal(err)
	}
	st.Close()
	// A newer snapshot that is garbage.
	fs.write("data/s1/"+snapName(7), []byte("DLSN\x01garbage"))

	_, res := reopen(t, opts)
	if res.Snapshot == nil || res.Snapshot.Meta.Seq != 0 {
		t.Fatalf("fallback to older snapshot failed: %+v", res)
	}
	if res.SkippedSnapshots != 1 {
		t.Fatalf("want 1 skipped snapshot, got %d", res.SkippedSnapshots)
	}
}

func TestStoreCheckpointRotatesAndGCs(t *testing.T) {
	fs := newTestFS()
	st, _ := newMemStore(t, fs, true)
	fs.checkpoint(t, st, testSnapshot(0))
	for seq := uint64(1); seq <= 3; seq++ {
		if _, _, err := st.Append(&Batch{Seq: seq, Ins: map[string][]storage.Tuple{"edge": {tup(int(seq), 0)}}}); err != nil {
			t.Fatal(err)
		}
	}
	fs.checkpoint(t, st, testSnapshot(3))
	fs.checkSegmentsSynced(t)
	names := fs.list("data/s1")
	var snaps, wals []string
	for _, n := range names {
		if strings.HasSuffix(n, SnapSuffix) {
			snaps = append(snaps, n)
		}
		if strings.HasSuffix(n, WALSuffix) {
			wals = append(wals, n)
		}
	}
	if len(snaps) != 1 || snaps[0] != snapName(3) {
		t.Fatalf("old snapshots not collected: %v", snaps)
	}
	if len(wals) != 1 || wals[0] != walName(4) {
		t.Fatalf("old segments not collected / not rotated: %v", wals)
	}
	st.Close()
}

func TestStoreSegmentRotationBySize(t *testing.T) {
	fs := newTestFS()
	opts := Options{Dir: "data", Fsync: true, FS: fs, MaxSegmentBytes: 64}
	st, err := Open(opts, "s1")
	if err != nil {
		t.Fatal(err)
	}
	fs.checkpoint(t, st, testSnapshot(0))
	for seq := uint64(1); seq <= 6; seq++ {
		if _, _, err := st.Append(&Batch{Seq: seq, Ins: map[string][]storage.Tuple{"edge": {tup(int(seq), int(seq))}}}); err != nil {
			t.Fatal(err)
		}
	}
	st.Close()
	var wals int
	for _, n := range fs.list("data/s1") {
		if strings.HasSuffix(n, WALSuffix) {
			wals++
		}
	}
	if wals < 2 {
		t.Fatalf("want rotation to produce multiple segments, got %d", wals)
	}
	fs.checkSegmentsSynced(t)
	// All six batches survive the rotation.
	_, res := reopen(t, opts)
	if len(res.Batches) != 6 {
		t.Fatalf("want 6 batches across segments, got %d", len(res.Batches))
	}
}

func TestFreshDirectoryRecoversEmpty(t *testing.T) {
	fs := newTestFS()
	_, res := reopen(t, Options{Dir: "data", Fsync: true, FS: fs})
	if res.Snapshot != nil || len(res.Batches) != 0 {
		t.Fatalf("fresh dir should recover empty, got %+v", res)
	}
}

func TestListSessions(t *testing.T) {
	fs := newTestFS()
	for _, s := range []string{"b", "a"} {
		if _, err := Open(Options{Dir: "data", FS: fs}, s); err != nil {
			t.Fatal(err)
		}
	}
	got, err := ListSessions(Options{Dir: "data", FS: fs})
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 || got[0] != "a" || got[1] != "b" {
		t.Fatalf("ListSessions = %v", got)
	}
}

func TestStaleTmpCleanedOnOpen(t *testing.T) {
	fs := newTestFS()
	fs.write("data/s1/"+snapName(5)+".tmp", []byte("partial"))
	st, _ := newMemStore(t, fs, true)
	st.Close()
	for _, n := range fs.list("data/s1") {
		if strings.HasSuffix(n, ".tmp") {
			t.Fatalf("stale tmp file survived Open: %s", n)
		}
	}
}
