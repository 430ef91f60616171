package durable

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"slices"
	"strings"
	"sync"

	"repro/internal/storage"
)

// Snapshot file format (version 2):
//
//	"DLSN" magic, 0x02 version byte
//	frame 'M': Meta, exactly as json.Marshal writes it
//	frame 'D': uvarint entry count, then every constant the relations
//	    hold, once, kind-tagged (appendTerm), in order of first
//	    appearance in the 'R' frames
//	frame 'R' (repeated): flag byte (bit 0: an IDB seed relation rather
//	    than a database one; bit 1: a rank column follows), relation
//	    name, uvarint arity, uvarint tuple count, the tuples' values as
//	    uvarint dictionary indices, arity per tuple, in position order,
//	    and for a ranked relation its rank column: per tuple, the zigzag
//	    varint of its rank minus the rank before it
//	frame 'Z': uvarint count of 'R' frames written
//
// Database relations come first, then seed relations, each group sorted
// by name; a relation carries a rank column when some tuple in it is
// ranked. That is the layout a storage.Relation holds in memory — a
// flat value array and a rank column, both in position order — so a
// decode interns the dictionary once, maps each index array through it
// and builds each relation in bulk (storage.BuildRelation).
//
// Decoding is strict, so that accepted bytes re-encode to themselves: a
// duplicate tuple, an index outside the dictionary, a dictionary entry
// that is repeated, unused or out of first-appearance order, an empty
// rank column, a non-minimal varint, relations out of order, or a
// header json.Marshal would not write is an error.
//
// Version 1 is read-only: its 'R' frames spell every tuple as
// kind-tagged terms, and 'K' frames (predicate name, uvarint arity,
// uvarint entry count, then per entry a tuple and its uvarint rank)
// list the derived tuples again with their ranks. DecodeSnapshot still
// reads it, so older data directories keep recovering.
//
// The terminating 'Z' frame (with its record count) is what makes a
// snapshot self-validating: a file that decodes to the end marker with
// the right count was written completely. Snapshots are written to a
// temp name, fsynced, and renamed into place, so a crashed checkpoint
// never shadows the previous valid snapshot.

// snapMagic is the snapshot file header: magic plus format version.
var snapMagic = []byte("DLSN\x02")

// SnapSuffix is the snapshot file extension.
const SnapSuffix = ".dlsn"

// Meta is the checkpoint header: everything the service needs to
// rebuild a session's compiled side without re-running the load
// pipeline, plus the replay cursor.
type Meta struct {
	// Session is the session name the snapshot belongs to.
	Session string `json:"session"`
	// Seq is the sequence number of the last committed batch folded
	// into this snapshot; WAL records with Seq' <= Seq are already
	// applied and must be skipped on replay (at-most-once).
	Seq uint64 `json:"seq"`
	// Program is the source text as loaded, in checkpoints written
	// before version 2. Nothing reads it, and version 2 writes it empty:
	// recovery parses Active, and the text cost a JSON escape of the
	// whole load body on every checkpoint.
	Program string `json:"program"`
	// Active is the program evaluation actually runs — the optimized
	// rule set when the load requested optimization — printed in
	// parseable source syntax. Recovery re-parses Active instead of
	// re-running the semantic-optimization pipeline.
	Active string `json:"active"`
	// Optimize is decode-only: checkpoints written while loads still
	// took an "optimize" flag carry it, and the strict header decode must
	// keep accepting them. Nothing writes or reads it (Active is what
	// recovery runs). SmallPreds echoes the load request.
	Optimize   bool     `json:"optimize,omitempty"`
	SmallPreds []string `json:"small_preds,omitempty"`
	// Plan, PlanChosen and Goal persist the cost-based planner's mode,
	// verdict and the query goal it planned for (internal/planner), so
	// a recovered session serves the same program without re-planning.
	// The candidate cost table is deliberately not persisted — it
	// described load-time data, and the stats surface marks recovered
	// decisions as such.
	Plan       string `json:"plan,omitempty"`
	PlanChosen string `json:"plan_chosen,omitempty"`
	Goal       string `json:"goal,omitempty"`
	// Rules, ICs and Optimized mirror the load response counters.
	Rules     int  `json:"rules"`
	ICs       int  `json:"ics"`
	Optimized bool `json:"optimized"`
	// Generation is the storage snapshot generation current when the
	// checkpoint was taken; recovery bumps the process-wide counter
	// past it so cache keys stay unique across restarts.
	Generation uint64 `json:"generation"`
	// HasRanks reports that the snapshot carries the derivation-layer
	// assignment of its materialized IDB, in its relations' rank
	// columns. Recovery can then reinstate incremental maintenance
	// directly; without it the ranks must be re-derived by a full
	// fixpoint.
	HasRanks bool `json:"has_ranks,omitempty"`
}

// RankedTuple is one derived tuple with its derivation layer, the unit
// of a version-1 snapshot's rank records.
type RankedTuple = storage.RankedTuple

// Snapshot is one decoded checkpoint: the session meta, the full
// database at fixpoint (EDB and materialized IDB), and the frozen seed
// facts the program stated for derived predicates.
type Snapshot struct {
	Meta Meta
	DB   *storage.Database
	Seed map[string]*storage.Relation
	// Ranks holds a version-1 file's rank records as read. Ranks proper
	// live in the relations' rank columns (storage.Relation.RankColumn):
	// the encoder reads them there, and both decoders leave them there,
	// so the encoder never reads this map.
	Ranks map[string][]RankedTuple
}

const (
	recMeta     = 'M'
	recDict     = 'D'
	recRelation = 'R'
	recRanks    = 'K' // version 1 only
	recEnd      = 'Z'

	relFlagDB     = 0
	relFlagSeed   = 1
	relFlagRanked = 2 // version 2: a rank column follows the tuples
)

// EncodeSnapshot renders snap into the version-2 byte format. The order
// of relations, of the dictionary and of each relation's tuples is
// fixed by the state (names, then positions), so identical states
// encode to identical bytes.
func EncodeSnapshot(snap *Snapshot) ([]byte, error) {
	meta, err := json.Marshal(snap.Meta)
	if err != nil {
		return nil, err
	}
	rels := snapRelations(snap)
	d := newDict()
	defer d.free()
	size := len(snapMagic) + len(meta) + 32
	for _, sr := range rels {
		vals := sr.rel.Values()
		for _, v := range vals {
			d.add(v)
		}
		size += 32 + len(sr.rel.Name) + 2*len(vals) + 2*len(sr.ranks)
	}
	out := make([]byte, 0, size+8*len(d.vals))
	out = append(out, snapMagic...)
	out = appendFrame(out, append([]byte{recMeta}, meta...))
	out = appendFrameWith(out, func(b []byte) []byte {
		b = append(b, recDict)
		b = binary.AppendUvarint(b, uint64(len(d.vals)))
		for _, v := range d.vals {
			b = appendTerm(b, v.Term())
		}
		return b
	})
	for _, sr := range rels {
		out = appendFrameWith(out, func(b []byte) []byte {
			rel, flag := sr.rel, sr.flag
			if sr.ranks != nil {
				flag |= relFlagRanked
			}
			b = append(b, recRelation, flag)
			b = appendString(b, rel.Name)
			b = binary.AppendUvarint(b, uint64(rel.Arity))
			b = binary.AppendUvarint(b, uint64(rel.Len()))
			for _, v := range rel.Values() {
				b = binary.AppendUvarint(b, uint64(d.index[v]-1))
			}
			prev := int64(0)
			for _, r := range sr.ranks {
				b = binary.AppendVarint(b, int64(r)-prev)
				prev = int64(r)
			}
			return b
		})
	}
	end := []byte{recEnd}
	end = binary.AppendUvarint(end, uint64(len(rels)))
	return appendFrame(out, end), nil
}

// snapRel is one relation as a checkpoint writes it: its group flag and
// its rank column, nil when no tuple of it is ranked.
type snapRel struct {
	flag  byte
	rel   *storage.Relation
	ranks []uint32
}

// snapRelations lists snap's relations in file order: the database's,
// then the seed relations, each sorted by name.
func snapRelations(snap *Snapshot) []snapRel {
	preds := snap.DB.Preds()
	out := make([]snapRel, 0, len(preds)+len(snap.Seed))
	for _, p := range preds {
		out = append(out, snapRel{flag: relFlagDB, rel: snap.DB.Relation(p)})
	}
	seeds := len(out)
	for _, rel := range snap.Seed {
		out = append(out, snapRel{flag: relFlagSeed, rel: rel})
	}
	slices.SortFunc(out[seeds:], func(a, b snapRel) int { return strings.Compare(a.rel.Name, b.rel.Name) })
	for i := range out {
		col := out[i].rel.RankColumn()
		if slices.ContainsFunc(col, func(r uint32) bool { return r != 0 }) {
			out[i].ranks = col
		}
	}
	return out
}

// dict numbers a checkpoint's constants in order of first appearance.
// index is addressed by Value and holds a constant's number plus one (0:
// not seen). Dicts are pooled and cleared entry by entry after use, so
// a checkpoint costs O(its constants), not O(all interned constants).
type dict struct {
	index []uint32
	vals  []storage.Value
}

var dictPool sync.Pool

// newDict returns an empty dict that can number every Value interned so
// far.
func newDict() *dict {
	n := storage.Interned() + 1
	d, _ := dictPool.Get().(*dict)
	if d == nil {
		d = &dict{}
	}
	if len(d.index) < n {
		d.index = make([]uint32, n+n/4)
	}
	return d
}

// add numbers v if it is new, and reports whether it was.
func (d *dict) add(v storage.Value) bool {
	if d.index[v] != 0 {
		return false
	}
	d.vals = append(d.vals, v)
	d.index[v] = uint32(len(d.vals))
	return true
}

// free clears d and returns it to the pool.
func (d *dict) free() {
	for _, v := range d.vals {
		d.index[v] = 0
	}
	d.vals = d.vals[:0]
	dictPool.Put(d)
}

// DecodeSnapshot parses a full snapshot file of either version. Any
// structural problem — wrong magic or version, torn frame, duplicate
// relation, missing or mismatched end marker, trailing garbage, and for
// version 2 any non-canonical encoding — is an error: a snapshot is
// only trustworthy when it decodes exactly.
func DecodeSnapshot(b []byte) (*Snapshot, error) {
	magic := snapMagic[:len(snapMagic)-1]
	if len(b) < len(snapMagic) || string(b[:len(magic)]) != string(magic) {
		return nil, errors.New("durable: not a snapshot file")
	}
	version := b[len(magic)]
	if version != 1 && version != 2 {
		return nil, fmt.Errorf("durable: snapshot format version %d; this build reads versions 1 and 2", version)
	}
	b = b[len(snapMagic):]

	payload, n, err := nextFrame(b)
	if err != nil {
		return nil, fmt.Errorf("durable: snapshot meta frame: %w", err)
	}
	b = b[n:]
	if len(payload) < 1 || payload[0] != recMeta {
		return nil, errors.New("durable: snapshot does not start with a meta record")
	}
	snap := &Snapshot{DB: storage.NewDatabase(), Seed: map[string]*storage.Relation{}}
	dec := json.NewDecoder(bytes.NewReader(payload[1:]))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&snap.Meta); err != nil {
		return nil, fmt.Errorf("durable: snapshot meta: %w", err)
	}
	if version == 1 {
		err = decodeV1(b, snap)
	} else {
		canon, merr := json.Marshal(snap.Meta)
		if merr != nil || !bytes.Equal(canon, payload[1:]) {
			return nil, errors.New("durable: snapshot meta is not in canonical form")
		}
		err = decodeV2(b, snap)
	}
	if err != nil {
		return nil, err
	}
	return snap, nil
}

// endMarker checks a 'Z' payload against the records decoded and the
// bytes left after it.
func endMarker(payload []byte, records int, rest []byte, strict bool) error {
	r := &reader{b: payload, strict: strict}
	want := r.uvarint()
	if r.err != nil || r.remaining() != 0 {
		return errors.New("durable: malformed snapshot end marker")
	}
	if want != uint64(records) {
		return fmt.Errorf("durable: snapshot end marker counts %d records, file has %d", want, records)
	}
	if len(rest) != 0 {
		return errors.New("durable: trailing bytes after snapshot end marker")
	}
	return nil
}

// decodeV2 reads a version-2 snapshot's frames after the meta.
func decodeV2(b []byte, snap *Snapshot) error {
	payload, n, err := nextFrame(b)
	if err != nil {
		return fmt.Errorf("durable: snapshot dictionary frame: %w", err)
	}
	b = b[n:]
	if len(payload) < 1 || payload[0] != recDict {
		return errors.New("durable: snapshot meta is not followed by a dictionary")
	}
	table, err := decodeDict(payload[1:])
	if err != nil {
		return err
	}
	rd := &relDecoder{table: table}
	for {
		payload, n, err = nextFrame(b)
		if err != nil {
			return fmt.Errorf("durable: snapshot record %d: %w", rd.records+1, err)
		}
		b = b[n:]
		if len(payload) < 1 {
			return errors.New("durable: empty snapshot record")
		}
		switch payload[0] {
		case recRelation:
			if err := rd.relation(payload[1:], snap); err != nil {
				return err
			}
		case recEnd:
			if err := endMarker(payload[1:], rd.records, b, true); err != nil {
				return err
			}
			if rd.next != len(table) {
				return fmt.Errorf("durable: snapshot dictionary holds %d entries, its relations use %d", len(table), rd.next)
			}
			return nil
		default:
			return fmt.Errorf("durable: unknown snapshot record type %q", payload[0])
		}
	}
}

// decodeDict interns a dictionary frame's constants, each once, and
// returns the table its indices map through.
func decodeDict(payload []byte) ([]storage.Value, error) {
	r := &reader{b: payload, strict: true}
	n := r.uvarint()
	if r.err != nil || n > uint64(r.remaining())/2 { // an entry takes two bytes at least
		return nil, errors.New("durable: malformed snapshot dictionary")
	}
	table := make([]storage.Value, n)
	for i := range table {
		term := r.term()
		if r.err != nil {
			return nil, fmt.Errorf("durable: snapshot dictionary entry %d: %w", i, r.err)
		}
		table[i] = storage.Intern(term)
	}
	if r.remaining() != 0 {
		return nil, errors.New("durable: trailing bytes in snapshot dictionary")
	}
	seen := newDict()
	defer seen.free()
	for _, v := range table {
		if !seen.add(v) {
			return nil, fmt.Errorf("durable: snapshot dictionary holds %s twice", v)
		}
	}
	return table, nil
}

// relDecoder carries what a version-2 decode checks across 'R' frames.
type relDecoder struct {
	table   []storage.Value
	next    int // dictionary entries met so far; the next new index must be next
	records int
	last    struct {
		flag byte
		name string
	}
}

// relation decodes one 'R' frame and builds its relation in bulk.
func (rd *relDecoder) relation(payload []byte, snap *Snapshot) error {
	r := &reader{b: payload, strict: true}
	flag := r.byte()
	name, arity, count := r.relHeader()
	if r.err != nil {
		return fmt.Errorf("durable: relation header: %w", r.err)
	}
	if flag&^(relFlagSeed|relFlagRanked) != 0 {
		return fmt.Errorf("durable: unknown relation flag %d", flag)
	}
	group := flag & relFlagSeed
	if rd.records > 0 && (group < rd.last.flag || group == rd.last.flag && name <= rd.last.name) {
		return fmt.Errorf("durable: relation %s out of order in snapshot", name)
	}
	rd.records++
	rd.last.flag, rd.last.name = group, name

	vals := make([]storage.Value, count*arity)
	for k := range vals {
		i := r.uvarint()
		if r.err != nil {
			break
		}
		switch {
		case i >= uint64(len(rd.table)):
			return fmt.Errorf("durable: relation %s: index %d outside a dictionary of %d", name, i, len(rd.table))
		case i > uint64(rd.next):
			return fmt.Errorf("durable: relation %s: dictionary entry %d used before entry %d", name, i, rd.next)
		case i == uint64(rd.next):
			rd.next++
		}
		vals[k] = rd.table[i]
	}
	var ranks []uint32
	if flag&relFlagRanked != 0 {
		ranks = make([]uint32, count)
		prev, ranked := int64(0), false
		for k := range ranks {
			cur := prev + r.varint()
			if cur < 0 || cur > math.MaxUint32 {
				r.fail()
			}
			if r.err != nil {
				break
			}
			ranks[k], prev, ranked = uint32(cur), cur, ranked || cur != 0
		}
		if r.err == nil && !ranked {
			return fmt.Errorf("durable: relation %s has a rank column with no rank", name)
		}
	}
	if r.err != nil {
		return fmt.Errorf("durable: relation %s: %w", name, r.err)
	}
	if r.remaining() != 0 {
		return fmt.Errorf("durable: trailing bytes in relation %s record", name)
	}
	rel, err := storage.BuildRelation(name, arity, count, vals, ranks)
	if err != nil {
		return fmt.Errorf("durable: %w", err)
	}
	if group == relFlagSeed {
		snap.Seed[name] = rel
	} else {
		snap.DB.Replace(rel)
	}
	return nil
}

// decodeV1 reads a version-1 snapshot's frames after the meta, then
// writes its rank records into the decoded relations' rank columns.
func decodeV1(b []byte, snap *Snapshot) error {
	records := 0
	for {
		payload, n, err := nextFrame(b)
		if err != nil {
			return fmt.Errorf("durable: snapshot record %d: %w", records+1, err)
		}
		b = b[n:]
		if len(payload) < 1 {
			return errors.New("durable: empty snapshot record")
		}
		switch payload[0] {
		case recRelation:
			if err := decodeRelation(payload[1:], snap); err != nil {
				return err
			}
			records++
		case recRanks:
			if err := decodeRanks(payload[1:], snap); err != nil {
				return err
			}
			records++
		case recEnd:
			if err := endMarker(payload[1:], records, b, false); err != nil {
				return err
			}
			installRanks(snap)
			return nil
		default:
			return fmt.Errorf("durable: unknown snapshot record type %q", payload[0])
		}
	}
}

// installRanks writes a version-1 file's rank records into the decoded
// database's rank columns. A ranked tuple the database does not hold is
// skipped.
func installRanks(snap *Snapshot) {
	for p, rts := range snap.Ranks {
		rel := snap.DB.Relation(p)
		if rel == nil {
			continue
		}
		for _, rt := range rts {
			if pos, _ := rel.Rank(rt.T); pos >= 0 {
				rel.SetRank(pos, rt.Rank)
			}
		}
	}
}

func decodeRelation(payload []byte, snap *Snapshot) error {
	r := &reader{b: payload}
	flag := r.byte()
	name, arity, count := r.relHeader()
	if r.err != nil {
		return fmt.Errorf("durable: relation header: %w", r.err)
	}
	if flag != relFlagDB && flag != relFlagSeed {
		return fmt.Errorf("durable: unknown relation flag %d", flag)
	}
	var rel *storage.Relation
	switch flag {
	case relFlagDB:
		if snap.DB.Relation(name) != nil {
			return fmt.Errorf("durable: duplicate relation %s in snapshot", name)
		}
		rel = snap.DB.Ensure(name, arity)
	case relFlagSeed:
		if snap.Seed[name] != nil {
			return fmt.Errorf("durable: duplicate seed relation %s in snapshot", name)
		}
		rel = storage.NewRelation(name, arity)
		snap.Seed[name] = rel
	}
	buf := make(storage.Tuple, arity)
	for i := 0; i < count; i++ {
		t := r.tupleInto(buf)
		if r.err != nil {
			return fmt.Errorf("durable: relation %s tuple %d: %w", name, i, r.err)
		}
		rel.Insert(t)
	}
	if r.remaining() != 0 {
		return fmt.Errorf("durable: trailing bytes in relation %s record", name)
	}
	return nil
}

func decodeRanks(payload []byte, snap *Snapshot) error {
	r := &reader{b: payload}
	name, arity, count := r.relHeader()
	if r.err != nil {
		return fmt.Errorf("durable: rank header: %w", r.err)
	}
	if snap.Ranks[name] != nil {
		return fmt.Errorf("durable: duplicate rank record for %s in snapshot", name)
	}
	rts := make([]RankedTuple, 0, count)
	for i := 0; i < count; i++ {
		t := r.tuple(arity)
		rank := r.uvarint()
		if r.err != nil {
			return fmt.Errorf("durable: ranks of %s entry %d: %w", name, i, r.err)
		}
		rts = append(rts, RankedTuple{T: t, Rank: uint32(rank)})
	}
	if r.remaining() != 0 {
		return fmt.Errorf("durable: trailing bytes in rank record for %s", name)
	}
	if snap.Ranks == nil {
		snap.Ranks = map[string][]RankedTuple{}
	}
	snap.Ranks[name] = rts
	return nil
}
