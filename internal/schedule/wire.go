package schedule

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"math"
)

// The binary row wire form is the allocation-free sibling of the JSON row:
//
//	string fields (instance, algorithm, kind) as uvarint length + bytes
//	budget, memory, io, writes as zigzag varints
//	seconds as 8 little-endian bytes of math.Float64bits
//
// in exactly the JSON/CSV column order. Seconds travels as raw bits, so the
// codec is exact for every float64 (including values JSON cannot carry).
// A framed row stream prefixes each encoded row with its uvarint length
// behind a three-byte header, so sinks and stores can append rows without
// any per-row marshalling state and readers can detect truncation.

// WireMagic is the first byte of every binary schedule stream (row streams,
// service request/response bodies). It is non-ASCII so binary payloads can
// never be confused with CSV, JSON or textual .tree documents.
const WireMagic = 0xAB

// RowStreamVersion is the current (and only) framed row stream version.
const RowStreamVersion = 1

// rowStreamKind is the stream-type byte of a framed row stream ('R' for
// rows; the service transport uses sibling kind bytes, and 'S' marks the
// files of the removed binary row store, see OpenPagedStoreWith).
const rowStreamKind = 'R'

// AppendRow serializes r in the binary row wire form, appending to dst
// (pass nil to allocate), and returns the extended slice.
func AppendRow(dst []byte, r Row) []byte {
	dst = appendString(dst, r.Instance)
	dst = appendString(dst, r.Algorithm)
	dst = appendString(dst, r.Kind)
	dst = binary.AppendVarint(dst, r.Budget)
	dst = binary.AppendVarint(dst, r.Memory)
	dst = binary.AppendVarint(dst, r.IO)
	dst = binary.AppendVarint(dst, int64(r.Writes))
	return binary.LittleEndian.AppendUint64(dst, math.Float64bits(r.Seconds))
}

// DecodeRow parses one binary row from the front of data and returns the
// row plus the remaining bytes. It is the inverse of AppendRow and exact:
// decode(encode(r)) == r for every row, bit for bit.
func DecodeRow(data []byte) (Row, []byte, error) {
	var d rowDecoder
	return d.decode(data)
}

// rowDecoder decodes binary rows, optionally interning the string fields so
// a long stream of rows shares one string per distinct instance, algorithm
// and kind instead of allocating each copy.
type rowDecoder struct {
	intern map[string]string
}

func (d *rowDecoder) str(b []byte) string {
	if d.intern == nil {
		return string(b)
	}
	if s, ok := d.intern[string(b)]; ok { // no alloc: mapaccess on []byte key
		return s
	}
	s := string(b)
	d.intern[s] = s
	return s
}

func (d *rowDecoder) decode(data []byte) (Row, []byte, error) {
	var (
		r   Row
		err error
	)
	fail := func(field string) (Row, []byte, error) {
		return Row{}, nil, fmt.Errorf("schedule: binary row has a malformed %s", field)
	}
	var b []byte
	if b, data, err = decodeBytes(data); err != nil {
		return fail("instance")
	}
	r.Instance = d.str(b)
	if b, data, err = decodeBytes(data); err != nil {
		return fail("algorithm")
	}
	r.Algorithm = d.str(b)
	if b, data, err = decodeBytes(data); err != nil {
		return fail("kind")
	}
	r.Kind = d.str(b)
	if r.Budget, data, err = decodeVarint(data); err != nil {
		return fail("budget")
	}
	if r.Memory, data, err = decodeVarint(data); err != nil {
		return fail("memory")
	}
	if r.IO, data, err = decodeVarint(data); err != nil {
		return fail("io")
	}
	var w int64
	if w, data, err = decodeVarint(data); err != nil {
		return fail("writes")
	}
	r.Writes = int(w)
	if len(data) < 8 {
		return fail("seconds")
	}
	r.Seconds = math.Float64frombits(binary.LittleEndian.Uint64(data))
	return r, data[8:], nil
}

func appendString(dst []byte, s string) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(s)))
	return append(dst, s...)
}

// decodeBytes reads a uvarint-length-prefixed byte field without copying.
func decodeBytes(data []byte) ([]byte, []byte, error) {
	v, n := binary.Uvarint(data)
	if n <= 0 {
		return nil, nil, fmt.Errorf("malformed length")
	}
	data = data[n:]
	if v > uint64(len(data)) {
		return nil, nil, fmt.Errorf("length %d exceeds %d remaining bytes", v, len(data))
	}
	return data[:v], data[v:], nil
}

func decodeVarint(data []byte) (int64, []byte, error) {
	v, n := binary.Varint(data)
	if n <= 0 {
		return 0, nil, fmt.Errorf("malformed varint")
	}
	return v, data[n:], nil
}

func decodeUvarint(data []byte) (uint64, []byte, error) {
	v, n := binary.Uvarint(data)
	if n <= 0 {
		return 0, nil, fmt.Errorf("malformed uvarint")
	}
	return v, data[n:], nil
}

// BinaryRowSink is a RowSink streaming rows in the framed binary wire form
// (the binary sibling of CSVSink/JSONLSink): a three-byte header, then one
// uvarint-length-prefixed AppendRow frame per row. The encoding scratch and
// the write buffer are reused across pushes, so a steady-state row costs no
// allocations. Flush must be called once the stream completes.
type BinaryRowSink struct {
	bw      *bufio.Writer
	scratch []byte
	header  bool
}

// NewBinaryRowSink returns a sink writing framed binary rows to w.
func NewBinaryRowSink(w io.Writer) *BinaryRowSink {
	return &BinaryRowSink{bw: bufio.NewWriter(w)}
}

// Push implements RowSink.
func (s *BinaryRowSink) Push(r Row) error {
	if !s.header {
		s.header = true
		if _, err := s.bw.Write([]byte{WireMagic, rowStreamKind, RowStreamVersion}); err != nil {
			return err
		}
	}
	s.scratch = AppendRow(s.scratch[:0], r)
	var lenBuf [binary.MaxVarintLen64]byte
	n := binary.PutUvarint(lenBuf[:], uint64(len(s.scratch)))
	if _, err := s.bw.Write(lenBuf[:n]); err != nil {
		return err
	}
	_, err := s.bw.Write(s.scratch)
	return err
}

// Flush writes the header (for an empty stream) and flushes buffered rows.
func (s *BinaryRowSink) Flush() error {
	if !s.header {
		s.header = true
		if _, err := s.bw.Write([]byte{WireMagic, rowStreamKind, RowStreamVersion}); err != nil {
			return err
		}
	}
	return s.bw.Flush()
}

// ReadBinaryRows decodes a complete framed binary row stream, the inverse
// of streaming rows through a BinaryRowSink. String fields are interned, so
// a grid's worth of rows shares one string per distinct instance, algorithm
// and kind. A stream cut off mid-frame is an error, not a short result.
func ReadBinaryRows(r io.Reader) ([]Row, error) {
	br := bufio.NewReader(r)
	var hdr [3]byte
	if _, err := io.ReadFull(br, hdr[:]); err != nil {
		return nil, fmt.Errorf("schedule: binary row stream header: %w", err)
	}
	if hdr[0] != WireMagic || hdr[1] != rowStreamKind {
		return nil, fmt.Errorf("schedule: bad binary row stream header % X", hdr[:])
	}
	if hdr[2] != RowStreamVersion {
		return nil, fmt.Errorf("schedule: unsupported binary row stream version %d (want %d)", hdr[2], RowStreamVersion)
	}
	var (
		rows []Row
		buf  []byte
		d    = rowDecoder{intern: make(map[string]string)}
	)
	for {
		frameLen, err := binary.ReadUvarint(br)
		if err == io.EOF {
			return rows, nil
		}
		if err != nil {
			return nil, fmt.Errorf("schedule: binary row stream truncated mid-frame: %w", err)
		}
		if frameLen > uint64(maxRowFrame) {
			return nil, fmt.Errorf("schedule: binary row frame of %d bytes exceeds the %d-byte limit", frameLen, maxRowFrame)
		}
		if uint64(cap(buf)) < frameLen {
			buf = make([]byte, frameLen)
		}
		buf = buf[:frameLen]
		if _, err := io.ReadFull(br, buf); err != nil {
			return nil, fmt.Errorf("schedule: binary row stream truncated mid-frame: %w", err)
		}
		row, rest, err := d.decode(buf)
		if err != nil {
			return nil, err
		}
		if len(rest) != 0 {
			return nil, fmt.Errorf("schedule: binary row frame has %d trailing bytes", len(rest))
		}
		rows = append(rows, row)
	}
}

// maxRowFrame bounds a single row frame; a longer length prefix means
// corruption, not a legitimate row.
const maxRowFrame = 1 << 20
