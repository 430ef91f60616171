package durable

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"sort"

	"repro/internal/storage"
)

// Snapshot file format (version 1):
//
//	"DLSN" magic, 0x01 version byte
//	frame 'M': JSON-encoded Meta
//	frame 'R' (repeated): flag byte (0 database, 1 IDB seed),
//	    relation name, uvarint arity, uvarint tuple count, tuples
//	frame 'K' (repeated): predicate name, uvarint arity, uvarint
//	    entry count, then per entry a tuple and its uvarint rank
//	frame 'Z': uvarint count of 'R'/'K' frames written
//
// The terminating 'Z' frame (with its record count) is what makes a
// snapshot self-validating: a file that decodes to the end marker with
// the right count was written completely. Snapshots are written to a
// temp name, fsynced, and renamed into place, so a crashed checkpoint
// never shadows the previous valid snapshot.

// snapMagic is the snapshot file header: magic plus format version.
var snapMagic = []byte("DLSN\x01")

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
	// Program is the original source text as loaded (rules, facts and
	// ICs), kept for reloads and debugging.
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
	// assignment of its materialized IDB ('K' records). Recovery can
	// then reinstate incremental maintenance directly; without it the
	// ranks must be re-derived by a full fixpoint.
	HasRanks bool `json:"has_ranks,omitempty"`
}

// RankedTuple is one derived tuple with its derivation layer, the unit
// of the snapshot's rank records.
type RankedTuple = storage.RankedTuple

// Snapshot is one decoded checkpoint: the session meta, the full
// database at fixpoint (EDB and materialized IDB), and the frozen seed
// facts the program stated for derived predicates.
type Snapshot struct {
	Meta Meta
	DB   *storage.Database
	Seed map[string]*storage.Relation
	// Ranks is the derivation-layer assignment of the materialized IDB
	// (per predicate), present when Meta.HasRanks.
	Ranks map[string][]RankedTuple
}

const (
	recMeta     = 'M'
	recRelation = 'R'
	recRanks    = 'K'
	recEnd      = 'Z'

	relFlagDB   = 0
	relFlagSeed = 1
)

// EncodeSnapshot renders snap into the version-1 byte format. Relation
// order is deterministic (sorted by name, database before seed), so
// identical states encode to identical bytes.
func EncodeSnapshot(snap *Snapshot) ([]byte, error) {
	meta, err := json.Marshal(snap.Meta)
	if err != nil {
		return nil, err
	}
	out := append([]byte(nil), snapMagic...)
	out = appendFrame(out, append([]byte{recMeta}, meta...))

	records := 0
	encodeRel := func(flag byte, rel *storage.Relation) {
		out = appendFrameWith(out, func(b []byte) []byte {
			b = append(b, recRelation, flag)
			b = appendString(b, rel.Name)
			b = binary.AppendUvarint(b, uint64(rel.Arity))
			b = binary.AppendUvarint(b, uint64(rel.Len()))
			for pos := 0; pos < rel.Len(); pos++ {
				b = appendTuple(b, rel.At(pos))
			}
			return b
		})
		records++
	}
	for _, p := range snap.DB.Preds() {
		encodeRel(relFlagDB, snap.DB.Relation(p))
	}
	seedNames := make([]string, 0, len(snap.Seed))
	for p := range snap.Seed {
		seedNames = append(seedNames, p)
	}
	sort.Strings(seedNames)
	for _, p := range seedNames {
		encodeRel(relFlagSeed, snap.Seed[p])
	}

	rankNames := make([]string, 0, len(snap.Ranks))
	for p := range snap.Ranks {
		if len(snap.Ranks[p]) > 0 {
			rankNames = append(rankNames, p)
		}
	}
	sort.Strings(rankNames)
	for _, p := range rankNames {
		rts := snap.Ranks[p]
		out = appendFrameWith(out, func(b []byte) []byte {
			b = append(b, recRanks)
			b = appendString(b, p)
			b = binary.AppendUvarint(b, uint64(len(rts[0].T)))
			b = binary.AppendUvarint(b, uint64(len(rts)))
			for _, rt := range rts {
				b = appendTuple(b, rt.T)
				b = binary.AppendUvarint(b, uint64(rt.Rank))
			}
			return b
		})
		records++
	}

	end := []byte{recEnd}
	end = binary.AppendUvarint(end, uint64(records))
	out = appendFrame(out, end)
	return out, nil
}

// DecodeSnapshot parses a full snapshot file. Any structural problem —
// wrong magic or version, torn frame, duplicate relation, missing or
// mismatched end marker, trailing garbage — is an error: a snapshot is
// only trustworthy when it decodes exactly.
func DecodeSnapshot(b []byte) (*Snapshot, error) {
	if len(b) < len(snapMagic) || string(b[:len(snapMagic)]) != string(snapMagic) {
		return nil, errors.New("durable: not a version-1 snapshot file")
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

	records := 0
	for {
		payload, n, err = nextFrame(b)
		if err != nil {
			return nil, fmt.Errorf("durable: snapshot record %d: %w", records+1, err)
		}
		b = b[n:]
		if len(payload) < 1 {
			return nil, errors.New("durable: empty snapshot record")
		}
		switch payload[0] {
		case recRelation:
			if err := decodeRelation(payload[1:], snap); err != nil {
				return nil, err
			}
			records++
		case recRanks:
			if err := decodeRanks(payload[1:], snap); err != nil {
				return nil, err
			}
			records++
		case recEnd:
			r := &reader{b: payload[1:]}
			want := r.uvarint()
			if r.err != nil || r.remaining() != 0 {
				return nil, errors.New("durable: malformed snapshot end marker")
			}
			if want != uint64(records) {
				return nil, fmt.Errorf("durable: snapshot end marker counts %d records, file has %d", want, records)
			}
			if len(b) != 0 {
				return nil, errors.New("durable: trailing bytes after snapshot end marker")
			}
			return snap, nil
		default:
			return nil, fmt.Errorf("durable: unknown snapshot record type %q", payload[0])
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
