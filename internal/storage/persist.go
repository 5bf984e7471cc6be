package storage

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"
)

// Persistent segment format ("SDF2"): a versioned header followed by
// per-column blocks, one block per sealed segment, each stored in its
// segment's encoding (RLE runs, FOR deltas packed as the block is
// written, or raw values). Load rebuilds the dense arrays block by block
// and re-attaches the stored encodings directly, so a reloaded table
// behaves exactly like the one that was saved — same epoch, same
// segments, same encoded fast paths — which is what lets cache
// fingerprints (and therefore warm Theorem 4.1 sharing) survive a
// restart.
//
// The decoder trusts nothing: every count is bounds-checked against the
// remaining input before allocation, and corrupt or truncated input
// returns an error wrapping ErrCorruptSegment — never a panic (the
// fuzz target feeds it arbitrary bytes).

// ErrCorruptSegment is wrapped by every decode error.
var ErrCorruptSegment = errors.New("storage: corrupt segment file")

var segMagic = [4]byte{'S', 'D', 'F', '2'}

const segVersion = 1

// SegFileExt is the on-disk extension for persisted tables.
const SegFileExt = ".seg"

// ---- encoder ----

type segWriter struct {
	buf []byte
}

func (w *segWriter) u8(v uint8)   { w.buf = append(w.buf, v) }
func (w *segWriter) u32(v uint32) { w.buf = binary.LittleEndian.AppendUint32(w.buf, v) }
func (w *segWriter) u64(v uint64) { w.buf = binary.LittleEndian.AppendUint64(w.buf, v) }
func (w *segWriter) str(s string) {
	w.u32(uint32(len(s)))
	w.buf = append(w.buf, s...)
}

// EncodeTable serializes a sealed table into the SDF2 format.
func EncodeTable(t *Table) ([]byte, error) {
	if err := t.Validate(); err != nil {
		return nil, err
	}
	w := &segWriter{buf: make([]byte, 0, 1<<16)}
	w.buf = append(w.buf, segMagic[:]...)
	w.u8(segVersion)
	w.str(t.Name)
	w.u64(uint64(t.Epoch))
	segs := t.Segments
	if len(segs) == 0 {
		segs = []int{t.NumRows()}
	}
	w.u32(uint32(len(segs)))
	for _, s := range segs {
		w.u64(uint64(s))
	}
	w.u32(uint32(len(t.Cols)))
	for _, c := range t.Cols {
		if err := encodeColumn(w, c, segs); err != nil {
			return nil, err
		}
	}
	return w.buf, nil
}

func encodeColumn(w *segWriter, c *Column, segs []int) error {
	w.str(c.Name)
	w.u8(uint8(c.Kind))
	if c.Kind == KindString {
		w.u32(uint32(len(c.dict)))
		for _, s := range c.dict {
			w.str(s)
		}
	}
	w.u32(uint32(len(segs)))
	lo := 0
	for _, end := range segs {
		if end < lo || end > c.Len() {
			return fmt.Errorf("storage: table segment boundary %d outside column %s (%d rows)", end, c.Name, c.Len())
		}
		encodeBlock(w, c, lo, end)
		lo = end
	}
	return nil
}

// blockEncodingFor finds the column's encoding for exactly [lo, hi), or
// nil (raw block).
func blockEncodingFor(c *Column, lo, hi int) *Encoding {
	for _, s := range c.encs {
		if s.Lo == lo && s.Hi == hi && s.Enc != nil {
			return s.Enc
		}
	}
	return nil
}

func encodeBlock(w *segWriter, c *Column, lo, hi int) {
	enc := blockEncodingFor(c, lo, hi)
	kind := EncNone
	integral, maxAbs := true, 0.0
	if enc != nil {
		kind, integral, maxAbs = enc.Kind, enc.Integral, enc.MaxAbs
	}
	w.u8(uint8(kind))
	w.u32(uint32(hi - lo))
	if kind == EncNone {
		// Stats may be unknown (tiny segment, no encoding built): mark
		// integral=false so a loaded stats-only segment never over-claims.
		if enc == nil {
			integral = false
		}
	}
	if integral {
		w.u8(1)
	} else {
		w.u8(0)
	}
	w.u64(math.Float64bits(maxAbs))
	switch kind {
	case EncRLE:
		w.u32(uint32(len(enc.RunEnds)))
		for _, e := range enc.RunEnds {
			w.u32(uint32(e))
		}
		switch c.Kind {
		case KindFloat:
			for _, v := range enc.RunVals {
				w.u64(math.Float64bits(v))
			}
		case KindInt:
			for _, v := range enc.RunValsI {
				w.u64(uint64(v))
			}
		default:
			for _, v := range enc.RunValsC {
				w.u32(uint32(v))
			}
		}
	case EncFOR:
		packed := packFOR(c.I[lo:hi], enc.ForBase, int(enc.ForWidth))
		w.u64(uint64(enc.ForBase))
		w.u8(enc.ForWidth)
		w.u32(uint32(len(packed)))
		for _, v := range packed {
			w.u64(v)
		}
	default: // raw values
		switch c.Kind {
		case KindFloat:
			for _, v := range c.F[lo:hi] {
				w.u64(math.Float64bits(v))
			}
		case KindInt:
			for _, v := range c.I[lo:hi] {
				w.u64(uint64(v))
			}
		default:
			for _, v := range c.Codes[lo:hi] {
				w.u32(uint32(v))
			}
		}
	}
}

// ---- decoder ----

type segReader struct {
	buf []byte
	pos int
}

func (r *segReader) fail(format string, args ...any) error {
	return fmt.Errorf("%w: offset %d: %s", ErrCorruptSegment, r.pos, fmt.Sprintf(format, args...))
}

func (r *segReader) need(n int) error {
	if n < 0 || r.pos+n > len(r.buf) || r.pos+n < r.pos {
		return r.fail("need %d bytes, %d left", n, len(r.buf)-r.pos)
	}
	return nil
}

func (r *segReader) u8() (uint8, error) {
	if err := r.need(1); err != nil {
		return 0, err
	}
	v := r.buf[r.pos]
	r.pos++
	return v, nil
}

func (r *segReader) u32() (uint32, error) {
	if err := r.need(4); err != nil {
		return 0, err
	}
	v := binary.LittleEndian.Uint32(r.buf[r.pos:])
	r.pos += 4
	return v, nil
}

func (r *segReader) u64() (uint64, error) {
	if err := r.need(8); err != nil {
		return 0, err
	}
	v := binary.LittleEndian.Uint64(r.buf[r.pos:])
	r.pos += 8
	return v, nil
}

func (r *segReader) str(maxLen int) (string, error) {
	n, err := r.u32()
	if err != nil {
		return "", err
	}
	if int(n) > maxLen {
		return "", r.fail("string length %d exceeds cap %d", n, maxLen)
	}
	if err := r.need(int(n)); err != nil {
		return "", err
	}
	s := string(r.buf[r.pos : r.pos+int(n)])
	r.pos += int(n)
	return s, nil
}

// count reads a u32 count and rejects values that could not possibly
// fit in the remaining input at minBytes per element (the allocation
// guard against corrupt headers).
func (r *segReader) count(minBytes int) (int, error) {
	n, err := r.u32()
	if err != nil {
		return 0, err
	}
	if minBytes > 0 && int(n) > (len(r.buf)-r.pos)/minBytes {
		return 0, r.fail("count %d exceeds remaining input", n)
	}
	return int(n), nil
}

// DecodeTable parses a SDF2-encoded table. The returned table is sealed,
// carries the saved epoch and segment boundaries, and has its encodings
// re-attached. Any structural problem returns an error wrapping
// ErrCorruptSegment; DecodeTable never panics on malformed input.
func DecodeTable(data []byte) (t *Table, err error) {
	// Defense in depth for the never-panic contract: a decoder bug on
	// adversarial input surfaces as a typed error, not a crash.
	defer func() {
		if rec := recover(); rec != nil {
			t, err = nil, fmt.Errorf("%w: decode panic: %v", ErrCorruptSegment, rec)
		}
	}()
	r := &segReader{buf: data}
	if err := r.need(5); err != nil {
		return nil, err
	}
	if [4]byte(data[:4]) != segMagic {
		return nil, r.fail("bad magic %q", data[:4])
	}
	r.pos = 4
	ver, _ := r.u8()
	if ver != segVersion {
		return nil, r.fail("unsupported version %d", ver)
	}
	name, err := r.str(1 << 16)
	if err != nil {
		return nil, err
	}
	if name == "" {
		return nil, r.fail("empty table name")
	}
	epochU, err := r.u64()
	if err != nil {
		return nil, err
	}
	epoch := int64(epochU)
	if epoch < 0 {
		return nil, r.fail("negative epoch")
	}
	nSegs, err := r.count(8)
	if err != nil {
		return nil, err
	}
	if nSegs == 0 {
		return nil, r.fail("no segments")
	}
	segs := make([]int, nSegs)
	prev := int64(0)
	for i := range segs {
		v, err := r.u64()
		if err != nil {
			return nil, err
		}
		if int64(v) < prev || v > math.MaxInt32 {
			return nil, r.fail("segment boundary %d not increasing or too large", v)
		}
		prev = int64(v)
		segs[i] = int(v)
	}
	numRows := segs[len(segs)-1]
	nCols, err := r.count(6)
	if err != nil {
		return nil, err
	}
	t = &Table{Name: name, byName: map[string]int{}, Epoch: epoch, Segments: segs}
	for i := 0; i < nCols; i++ {
		c, err := decodeColumn(r, segs, numRows)
		if err != nil {
			return nil, err
		}
		if err := t.AddColumn(c); err != nil {
			return nil, fmt.Errorf("%w: %v", ErrCorruptSegment, err)
		}
	}
	if r.pos != len(r.buf) {
		return nil, r.fail("%d trailing bytes", len(r.buf)-r.pos)
	}
	if err := t.Validate(); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrCorruptSegment, err)
	}
	t.Seal() // encodings are pre-attached; Seal only flips the flags
	return t, nil
}

func decodeColumn(r *segReader, segs []int, numRows int) (*Column, error) {
	name, err := r.str(1 << 16)
	if err != nil {
		return nil, err
	}
	if name == "" {
		return nil, r.fail("empty column name")
	}
	kindU, err := r.u8()
	if err != nil {
		return nil, err
	}
	kind := Kind(kindU)
	if kind != KindFloat && kind != KindInt && kind != KindString {
		return nil, r.fail("column %s: bad kind %d", name, kindU)
	}
	c := NewColumn(name, kind)
	if kind == KindString {
		nDict, err := r.count(4)
		if err != nil {
			return nil, err
		}
		c.dict = make([]string, 0, nDict)
		for i := 0; i < nDict; i++ {
			s, err := r.str(1 << 24)
			if err != nil {
				return nil, err
			}
			if _, dup := c.index[s]; dup {
				return nil, r.fail("column %s: duplicate dict entry", name)
			}
			c.index[s] = int32(len(c.dict))
			c.dict = append(c.dict, s)
		}
	}
	nBlocks, err := r.count(14)
	if err != nil {
		return nil, err
	}
	if nBlocks != len(segs) {
		return nil, r.fail("column %s: %d blocks for %d segments", name, nBlocks, len(segs))
	}
	lo := 0
	for _, end := range segs {
		if err := decodeBlock(r, c, lo, end); err != nil {
			return nil, err
		}
		lo = end
	}
	if c.Len() != numRows {
		return nil, r.fail("column %s: %d rows decoded, want %d", name, c.Len(), numRows)
	}
	return c, nil
}

func decodeBlock(r *segReader, c *Column, lo, hi int) error {
	kindU, err := r.u8()
	if err != nil {
		return err
	}
	rows, err := r.u32()
	if err != nil {
		return err
	}
	if int(rows) != hi-lo {
		return r.fail("block rows %d, want %d", rows, hi-lo)
	}
	integralU, err := r.u8()
	if err != nil {
		return err
	}
	maxAbsBits, err := r.u64()
	if err != nil {
		return err
	}
	integral, maxAbs := integralU == 1, math.Float64frombits(maxAbsBits)
	n := hi - lo
	switch EncodingKind(kindU) {
	case EncRLE:
		nRuns, err := r.count(4)
		if err != nil {
			return err
		}
		if nRuns == 0 || nRuns > n {
			return r.fail("bad run count %d for %d rows", nRuns, n)
		}
		e := &Encoding{Kind: EncRLE, NumRows: n, Integral: integral, MaxAbs: maxAbs,
			RunEnds: make([]int32, nRuns)}
		prev := int32(0)
		for i := range e.RunEnds {
			v, err := r.u32()
			if err != nil {
				return err
			}
			if int32(v) <= prev || int(v) > n {
				return r.fail("run end %d not increasing within %d rows", v, n)
			}
			prev = int32(v)
			e.RunEnds[i] = int32(v)
		}
		if int(prev) != n {
			return r.fail("runs cover %d of %d rows", prev, n)
		}
		switch c.Kind {
		case KindFloat:
			if err := r.need(8 * nRuns); err != nil {
				return err
			}
			e.RunVals = make([]float64, nRuns)
			start := 0
			for i := range e.RunVals {
				bits, _ := r.u64()
				v := math.Float64frombits(bits)
				e.RunVals[i] = v
				for j := start; j < int(e.RunEnds[i]); j++ {
					c.F = append(c.F, v)
				}
				start = int(e.RunEnds[i])
			}
		case KindInt:
			if err := r.need(8 * nRuns); err != nil {
				return err
			}
			e.RunValsI = make([]int64, nRuns)
			start := 0
			for i := range e.RunValsI {
				u, _ := r.u64()
				v := int64(u)
				e.RunValsI[i] = v
				for j := start; j < int(e.RunEnds[i]); j++ {
					c.I = append(c.I, v)
				}
				start = int(e.RunEnds[i])
			}
		default:
			if err := r.need(4 * nRuns); err != nil {
				return err
			}
			e.RunValsC = make([]int32, nRuns)
			start := 0
			for i := range e.RunValsC {
				u, _ := r.u32()
				v := int32(u)
				if v < 0 || int(v) >= len(c.dict) {
					return r.fail("dict code %d out of range %d", v, len(c.dict))
				}
				e.RunValsC[i] = v
				for j := start; j < int(e.RunEnds[i]); j++ {
					c.Codes = append(c.Codes, v)
				}
				start = int(e.RunEnds[i])
			}
		}
		c.encs = append(c.encs, EncSeg{Lo: lo, Hi: hi, Enc: e})
	case EncFOR:
		if c.Kind != KindInt {
			return r.fail("FOR block on %s column", c.Kind)
		}
		baseU, err := r.u64()
		if err != nil {
			return err
		}
		width, err := r.u8()
		if err != nil {
			return err
		}
		if width == 0 || width > forMaxWidth {
			return r.fail("bad FOR width %d", width)
		}
		nWords, err := r.count(8)
		if err != nil {
			return err
		}
		if need := (n*int(width) + 63) / 64; nWords != need {
			return r.fail("FOR words %d, want %d", nWords, need)
		}
		e := &Encoding{Kind: EncFOR, NumRows: n, Integral: integral, MaxAbs: maxAbs,
			ForBase: int64(baseU), ForWidth: width}
		packed := make([]uint64, nWords)
		for i := range packed {
			v, err := r.u64()
			if err != nil {
				return err
			}
			packed[i] = v
		}
		// Unpack into the dense array; the packed words are dropped.
		start := len(c.I)
		c.I = append(c.I, make([]int64, n)...)
		unpackFOR(packed, e.ForBase, int(width), c.I[start:start+n])
		c.encs = append(c.encs, EncSeg{Lo: lo, Hi: hi, Enc: e})
	case EncNone:
		switch c.Kind {
		case KindFloat:
			if err := r.need(8 * n); err != nil {
				return err
			}
			for i := 0; i < n; i++ {
				bits, _ := r.u64()
				c.F = append(c.F, math.Float64frombits(bits))
			}
		case KindInt:
			if err := r.need(8 * n); err != nil {
				return err
			}
			for i := 0; i < n; i++ {
				u, _ := r.u64()
				c.I = append(c.I, int64(u))
			}
		default:
			if err := r.need(4 * n); err != nil {
				return err
			}
			for i := 0; i < n; i++ {
				u, _ := r.u32()
				v := int32(u)
				if v < 0 || int(v) >= len(c.dict) {
					return r.fail("dict code %d out of range %d", v, len(c.dict))
				}
				c.Codes = append(c.Codes, v)
			}
		}
		if integral || maxAbs != 0 {
			c.encs = append(c.encs, EncSeg{Lo: lo, Hi: hi,
				Enc: &Encoding{Kind: EncNone, NumRows: n, Integral: integral, MaxAbs: maxAbs}})
		} else {
			// No stats were saved: attach a stats-only summary so the
			// encoding list stays contiguous for later appends.
			c.encs = append(c.encs, EncSeg{Lo: lo, Hi: hi, Enc: statsOnlySegment(c, lo, hi)})
		}
	default:
		return r.fail("bad block encoding %d", kindU)
	}
	return nil
}

// ---- file helpers ----

// SaveSegFile writes the table to path atomically (tmp + rename).
func (t *Table) SaveSegFile(path string) error {
	data, err := EncodeTable(t)
	if err != nil {
		return err
	}
	tmp := path + ".tmp"
	if err := os.WriteFile(tmp, data, 0o644); err != nil {
		return err
	}
	if err := os.Rename(tmp, path); err != nil {
		os.Remove(tmp)
		return err
	}
	return nil
}

// LoadSegFile reads a table saved by SaveSegFile and raises the global
// epoch counter past the loaded epoch.
func LoadSegFile(path string) (*Table, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	t, err := DecodeTable(data)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", filepath.Base(path), err)
	}
	EnsureEpochAtLeast(t.Epoch)
	return t, nil
}
