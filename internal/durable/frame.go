package durable

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"

	"repro/internal/ast"
	"repro/internal/storage"
)

// On-disk framing, shared by snapshots and WAL segments. Every record
// is one frame:
//
//	uint32 LE payload length | uint32 LE CRC-32 (IEEE) of payload | payload
//
// A frame whose bytes end early or whose CRC does not match marks the
// end of the valid prefix — for a WAL segment that is an expected torn
// tail (the record was being written when the process died), for a
// snapshot it invalidates the file (snapshots are only visible after a
// completed write + rename, so a bad frame means real corruption).

// maxFrameLen bounds a single record. Anything larger is treated as
// corruption rather than a giant allocation.
const maxFrameLen = 64 << 20

// errBadFrame marks a frame that cannot be decoded at this offset:
// short header, short payload, oversized length, or CRC mismatch.
var errBadFrame = errors.New("durable: bad or torn frame")

// appendFrame appends one framed payload to dst.
func appendFrame(dst, payload []byte) []byte {
	dst = binary.LittleEndian.AppendUint32(dst, uint32(len(payload)))
	dst = binary.LittleEndian.AppendUint32(dst, crc32.ChecksumIEEE(payload))
	return append(dst, payload...)
}

// appendFrameWith appends one frame whose payload body writes straight
// into dst: the header is reserved first and backfilled with the
// payload's length and CRC, so a large payload is never built on the
// side and copied in. The bytes equal appendFrame's.
func appendFrameWith(dst []byte, body func([]byte) []byte) []byte {
	at := len(dst)
	dst = body(append(dst, make([]byte, 8)...))
	payload := dst[at+8:]
	binary.LittleEndian.PutUint32(dst[at:], uint32(len(payload)))
	binary.LittleEndian.PutUint32(dst[at+4:], crc32.ChecksumIEEE(payload))
	return dst
}

// AppendFrame exposes the durable frame encoding (u32 LE length, u32 LE
// CRC-32, payload) for other transports — the replication stream ships
// the exact framing the WAL uses on disk.
func AppendFrame(dst, payload []byte) []byte { return appendFrame(dst, payload) }

// ErrBadFrame reports a frame that cannot be decoded: short header,
// short payload, oversized length, or CRC mismatch.
var ErrBadFrame = errBadFrame

// MaxFrameLen is the largest payload a single frame may carry; larger
// lengths are treated as corruption rather than honored as allocations.
const MaxFrameLen = maxFrameLen

// ReadFrame reads one complete frame from r, blocking until the header
// and payload arrive. io.EOF at a frame boundary is returned verbatim;
// a stream that ends inside a frame yields io.ErrUnexpectedEOF, and a
// CRC mismatch or oversized length yields ErrBadFrame. This is the
// streaming twin of nextFrame for transports that cannot seek.
func ReadFrame(r io.Reader) ([]byte, error) {
	var hdr [8]byte
	if _, err := io.ReadFull(r, hdr[:1]); err != nil {
		return nil, err // clean EOF between frames stays io.EOF
	}
	if _, err := io.ReadFull(r, hdr[1:]); err != nil {
		if err == io.EOF {
			err = io.ErrUnexpectedEOF
		}
		return nil, err
	}
	n := binary.LittleEndian.Uint32(hdr[:4])
	if n > maxFrameLen {
		return nil, ErrBadFrame
	}
	payload := make([]byte, n)
	if _, err := io.ReadFull(r, payload); err != nil {
		if err == io.EOF {
			err = io.ErrUnexpectedEOF
		}
		return nil, err
	}
	if crc32.ChecksumIEEE(payload) != binary.LittleEndian.Uint32(hdr[4:]) {
		return nil, ErrBadFrame
	}
	return payload, nil
}

// nextFrame decodes the frame at the start of b, returning its payload
// and total encoded size. errBadFrame means b does not start with a
// complete, checksummed frame.
func nextFrame(b []byte) (payload []byte, size int, err error) {
	if len(b) < 8 {
		return nil, 0, errBadFrame
	}
	n := binary.LittleEndian.Uint32(b)
	if n > maxFrameLen || int(n) > len(b)-8 {
		return nil, 0, errBadFrame
	}
	payload = b[8 : 8+int(n)]
	if crc32.ChecksumIEEE(payload) != binary.LittleEndian.Uint32(b[4:]) {
		return nil, 0, errBadFrame
	}
	return payload, 8 + int(n), nil
}

// Term encoding: a one-byte kind tag followed by the value. The set of
// kinds is closed (storage only ever holds ground terms).
const (
	tagInt byte = 1 // zigzag varint
	tagSym byte = 2 // uvarint length + bytes
)

// maxArity bounds a relation's column count on decode; real programs
// stay tiny, and the cap keeps fuzzed counts from driving allocations.
const maxArity = 255

func appendTerm(dst []byte, t ast.Term) []byte {
	switch x := t.(type) {
	case ast.Int:
		dst = append(dst, tagInt)
		return binary.AppendVarint(dst, int64(x))
	case ast.Sym:
		dst = append(dst, tagSym)
		return appendString(dst, string(x))
	default:
		panic(fmt.Sprintf("durable: non-ground term %v", t))
	}
}

func appendString(dst []byte, s string) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(s)))
	return append(dst, s...)
}

// appendTuple resolves each interned value back to its term and writes
// the kind-tagged encoding — the WAL's bytes are identical to what
// pre-interning builds wrote, so its frames stay stable across the
// interning refactor.
func appendTuple(dst []byte, t storage.Tuple) []byte {
	for _, v := range t {
		dst = appendTerm(dst, v.Term())
	}
	return dst
}

// reader is a bounds-checked cursor over one record payload. The first
// failed read latches err; every later read returns zero values, so
// decoders can run a whole parse and check err once. A strict reader
// also fails on a varint that is not in its shortest form, which is
// what lets a version-2 snapshot round-trip byte for byte.
type reader struct {
	b      []byte
	off    int
	err    error
	strict bool
}

func (r *reader) fail() {
	if r.err == nil {
		r.err = errors.New("durable: truncated or malformed record")
	}
}

func (r *reader) remaining() int { return len(r.b) - r.off }

func (r *reader) byte() byte {
	if r.err != nil || r.off >= len(r.b) {
		r.fail()
		return 0
	}
	c := r.b[r.off]
	r.off++
	return c
}

func (r *reader) uvarint() uint64 {
	if r.err != nil {
		return 0
	}
	v, n := binary.Uvarint(r.b[r.off:])
	if n <= 0 || r.overlong(n) {
		r.fail()
		return 0
	}
	r.off += n
	return v
}

// overlong reports, on a strict reader, that the n-byte varint at the
// cursor is not in its shortest form: only there can its last byte be
// zero with more than one byte used.
func (r *reader) overlong(n int) bool {
	return r.strict && n > 1 && r.b[r.off+n-1] == 0
}

func (r *reader) varint() int64 {
	if r.err != nil {
		return 0
	}
	v, n := binary.Varint(r.b[r.off:])
	if n <= 0 || r.overlong(n) {
		r.fail()
		return 0
	}
	r.off += n
	return v
}

func (r *reader) uint64() uint64 {
	if r.err != nil || r.remaining() < 8 {
		r.fail()
		return 0
	}
	v := binary.LittleEndian.Uint64(r.b[r.off:])
	r.off += 8
	return v
}

func (r *reader) str() string {
	n := r.uvarint()
	if r.err != nil || n > uint64(r.remaining()) {
		r.fail()
		return ""
	}
	s := string(r.b[r.off : r.off+int(n)])
	r.off += int(n)
	return s
}

func (r *reader) term() ast.Term {
	switch r.byte() {
	case tagInt:
		return ast.Int(r.varint())
	case tagSym:
		return ast.Sym(r.str())
	default:
		r.fail()
		return ast.Int(0)
	}
}

// tuple decodes the kind-tagged terms and interns them — the only
// place (besides parsing) where strings cross into value space.
func (r *reader) tuple(arity int) storage.Tuple { return r.tupleInto(make(storage.Tuple, arity)) }

// tupleInto decodes len(t) terms into t, for callers that copy the
// tuple out before the next decode (a relation's Insert does).
func (r *reader) tupleInto(t storage.Tuple) storage.Tuple {
	for i := range t {
		term := r.term()
		if r.err != nil {
			return nil
		}
		t[i] = storage.Intern(term)
	}
	return t
}

// relHeader reads a relation header (name, arity, tuple count) with
// sanity bounds: arity capped, and count limited by what the remaining
// payload could possibly hold (each term is at least two bytes... one
// tag plus one value byte, except Int 0 which is tag+1; use one byte
// per term as the conservative floor).
func (r *reader) relHeader() (name string, arity int, count int) {
	name = r.str()
	a := r.uvarint()
	c := r.uvarint()
	if r.err != nil {
		return "", 0, 0
	}
	if a > maxArity || name == "" {
		r.fail()
		return "", 0, 0
	}
	floor := uint64(1)
	if a > 0 {
		floor = a
	}
	if c > uint64(r.remaining())/floor+1 {
		r.fail()
		return "", 0, 0
	}
	return name, int(a), int(c)
}
