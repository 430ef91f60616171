package durable

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"repro/internal/ast"
	"repro/internal/storage"
)

var updateGolden = flag.Bool("update", false, "rewrite the golden v2 snapshot and v1 WAL files in testdata/")

// goldenSnapshot builds the state testdata/snapshot-v2.dlsn holds: a
// database and a seed relation, symbols and integers (negative and past
// 32 bits), an arity-0 relation, an empty one, and a ranked relation
// whose seed fact is unranked.
func goldenSnapshot() *Snapshot {
	snap := testSnapshot(42)
	snap.Meta.Program = ""
	snap.Meta.Active = "tc(X, Y) :- edge(X, Y).\ntc(X, Z) :- tc(X, Y), edge(Y, Z).\n"
	snap.Meta.Rules = 2
	snap.Meta.HasRanks = true
	db := snap.DB
	db.Add("edge", ast.Sym("it's"), ast.Sym("ünï"))
	db.Add("num", ast.Int(1<<40))
	db.Add("tc", ast.Sym("a"), ast.Sym("c"))
	db.Add("tc", ast.Sym("b"), ast.Sym("c"))
	db.Ensure("flag", 0).Insert(storage.Tuple{})
	db.Ensure("none", 3)
	tc := db.Relation("tc")
	tc.SetRank(tc.Pos(tup("a", "c")), 7)
	tc.SetRank(tc.Pos(tup("b", "c")), 300)
	return snap
}

// goldenSegment builds the canonical v1 WAL segment. The encoder is
// deterministic (sorted predicates, fixed field order), so it must
// stay byte-for-byte reproducible.
func goldenSegment() []byte {
	seg := []byte(walMagic)
	seg = appendFrame(seg, EncodeBatch(&Batch{
		Seq: 43,
		Ins: map[string][]storage.Tuple{"edge": {tup("c", "d"), tup("d", "e")}, "num": {tup(-7), tup(1 << 40)}},
	}))
	seg = appendFrame(seg, EncodeBatch(&Batch{
		Seq: 44,
		Del: map[string][]storage.Tuple{"edge": {tup("a", "b")}},
	}))
	return seg
}

// rankOf reads the rank of t in rel (0 when unranked or absent).
func rankOf(rel *storage.Relation, t storage.Tuple) uint32 {
	_, r := rel.Rank(t)
	return r
}

// TestGoldenFormat pins the on-disk formats. Encoding today's
// structures must reproduce the checked-in v2 snapshot and v1 WAL bytes
// exactly, and every checked-in file must decode to the expected state:
// snapshot-v1.dlsn, which no build writes any more, included. Any
// divergence is a format break — recovery of existing data directories
// would fail — and requires a version bump, not a golden update.
func TestGoldenFormat(t *testing.T) {
	snapV2, err := EncodeSnapshot(goldenSnapshot())
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		file string
		data []byte
	}{
		{"snapshot-v2.dlsn", snapV2},
		{"wal-v1.dlwl", goldenSegment()},
	}
	for _, c := range cases {
		path := filepath.Join("testdata", c.file)
		if *updateGolden {
			if err := os.MkdirAll("testdata", 0o755); err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(path, c.data, 0o644); err != nil {
				t.Fatal(err)
			}
			continue
		}
		want, err := os.ReadFile(path)
		if err != nil {
			t.Fatalf("missing golden file (run go test -update): %v", err)
		}
		if !bytes.Equal(c.data, want) {
			t.Errorf("%s: encoder output diverged from the golden bytes (len %d vs %d); this breaks recovery of existing data dirs",
				c.file, len(c.data), len(want))
		}
	}
	if *updateGolden {
		return
	}

	// The golden bytes must also still DECODE correctly — byte equality
	// above proves the writers, this proves the readers against data
	// written by past builds.
	for _, c := range []struct {
		file string
		want *Snapshot
	}{
		{"snapshot-v1.dlsn", testSnapshot(42)},
		{"snapshot-v2.dlsn", goldenSnapshot()},
	} {
		b, err := os.ReadFile(filepath.Join("testdata", c.file))
		if err != nil {
			t.Fatal(err)
		}
		snap, err := DecodeSnapshot(b)
		if err != nil {
			t.Fatalf("%s no longer decodes: %v", c.file, err)
		}
		if !reflect.DeepEqual(snap.Meta, c.want.Meta) {
			t.Fatalf("%s meta = %+v, want %+v", c.file, snap.Meta, c.want.Meta)
		}
		if !snap.DB.Equal(c.want.DB) {
			t.Fatalf("%s database differs from the expected state:\n%s", c.file, snap.DB)
		}
		if len(snap.Seed) != 1 || snap.Seed["tc"].Len() != 1 || !snap.Seed["tc"].Contains(tup("a", "b")) {
			t.Fatalf("%s seed = %+v", c.file, snap.Seed)
		}
		for _, p := range c.want.DB.Preds() {
			want, got := c.want.DB.Relation(p), snap.DB.Relation(p)
			for pos := 0; pos < want.Len(); pos++ {
				if r, w := rankOf(got, want.At(pos)), rankOf(want, want.At(pos)); r != w {
					t.Fatalf("%s: %s%v has rank %d, want %d", c.file, p, want.At(pos), r, w)
				}
			}
		}
	}

	segBytes, err := os.ReadFile(filepath.Join("testdata", "wal-v1.dlwl"))
	if err != nil {
		t.Fatal(err)
	}
	batches, validLen, err := ScanSegment(segBytes)
	if err != nil {
		t.Fatalf("golden WAL no longer scans: %v", err)
	}
	if validLen != int64(len(segBytes)) || len(batches) != 2 {
		t.Fatalf("golden WAL scan = %d batches, validLen %d of %d", len(batches), validLen, len(segBytes))
	}
	if batches[0].Seq != 43 || batches[1].Seq != 44 {
		t.Fatalf("golden WAL seqs = %d, %d, want 43, 44", batches[0].Seq, batches[1].Seq)
	}
	if len(batches[0].Ins["edge"]) != 2 || len(batches[0].Ins["num"]) != 2 || len(batches[1].Del["edge"]) != 1 {
		t.Fatalf("golden WAL deltas = %+v / %+v", batches[0], batches[1])
	}
}
