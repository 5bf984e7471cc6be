package storage

import (
	"math"
	"math/bits"
	"sync/atomic"
)

// This file is the v2 encoding layer: per-segment acceleration
// structures chosen by a cheap stats pass when a segment seals. The
// dense arrays (F/I/Codes) remain the primary representation — every
// predicate, join and accessor keeps reading them — and encodings
// attach alongside as immutable per-segment summaries:
//
//   - RLE records maximal bitwise-constant runs. Aggregation kernels
//     fold a run as (value, count) in O(1) instead of O(count)
//     (exec.StateTask.FoldRuns), and the persistent format stores runs
//     instead of rows.
//   - FOR (frame-of-reference) bit-packs an int segment as
//     base + width-bit deltas. It is an I/O format: the heap keeps only
//     the base and width, the persistent layer packs the dense rows
//     when it writes a block (packFOR) and unpacks them into the dense
//     array on load (unpackFOR).
//
// Runs use Float64bits equality, not ==: NaNs with equal payloads merge
// into one run (adversarial NaN runs stay compact) and +0/-0 stay
// distinct, which is what makes run-folds order-identical to the dense
// scan.

// EncodingKind identifies a segment encoding.
type EncodingKind uint8

const (
	// EncNone marks a segment stored dense-only.
	EncNone EncodingKind = iota
	// EncRLE is run-length encoding of bitwise-constant runs.
	EncRLE
	// EncFOR is frame-of-reference bit-packing for int64 segments.
	EncFOR
)

func (k EncodingKind) String() string {
	switch k {
	case EncNone:
		return "none"
	case EncRLE:
		return "rle"
	case EncFOR:
		return "for"
	}
	return "EncodingKind(?)"
}

// Encoding is one sealed segment's encoded form plus the stats the
// exactness guards need. Immutable after construction.
type Encoding struct {
	Kind EncodingKind
	// NumRows is the segment length.
	NumRows int

	// RLE: run i covers rows [RunEnds[i-1], RunEnds[i]) of the segment
	// and holds the constant value in the kind-matching array.
	RunEnds  []int32
	RunVals  []float64 // KindFloat
	RunValsI []int64   // KindInt
	RunValsC []int32   // KindString codes

	// FOR: every value is ForBase plus a ForWidth-bit delta. The packed
	// deltas exist only in a saved block.
	ForBase  int64
	ForWidth uint8

	// Integral reports every value in the segment is an exact integer
	// (trivially true for int and code segments; false if the segment
	// holds any NaN, ±Inf or fractional float). MaxAbs is the largest
	// |value| (0 for an empty segment; +Inf if the segment holds ±Inf).
	Integral bool
	MaxAbs   float64
}

// EncSeg attaches an Encoding to the half-open row range [Lo, Hi) of a
// column version. Ranges are in that version's coordinates; Slice
// rebases them.
type EncSeg struct {
	Lo, Hi int
	Enc    *Encoding
}

// minEncodeRows is the smallest segment worth encoding. Kept small so
// unit-scale tables exercise the encoded paths.
const minEncodeRows = 16

// rleMaxRunFrac: RLE is chosen only when it actually compresses —
// runs ≤ rows/4, i.e. mean run length ≥ 4.
const rleMaxRunFrac = 4

// forMaxWidth caps FOR packing at 32 bits per value; beyond that the
// packed form stops being an interesting win over raw rows.
const forMaxWidth = 32

// encodedSegsBuilt counts encodings built process-wide (observability).
var encodedSegsBuilt atomic.Int64

// runFolds counts aggregate run-folds executed process-wide; bumped by
// the exec layer through CountRunFold.
var runFolds atomic.Int64

// EncodedSegmentsBuilt returns the process-lifetime count of segment
// encodings built (metrics).
func EncodedSegmentsBuilt() int64 { return encodedSegsBuilt.Load() }

// RunFoldsExecuted returns the process-lifetime count of O(1) run-folds
// executed by aggregation kernels (metrics).
func RunFoldsExecuted() int64 { return runFolds.Load() }

// CountRunFolds adds n to the run-fold counter.
func CountRunFolds(n int64) { runFolds.Add(n) }

// EncodedSegments returns the column's encoded segments (nil when the
// column has none). The returned slice and encodings are immutable.
func (c *Column) EncodedSegments() []EncSeg { return c.encs }

// buildEncodings encodes every sealed segment of the column that has
// none yet, given the owning table's cumulative segment boundaries.
// Called under Table.Seal's once / the ingest lock, never concurrently
// with itself for one column version.
func (c *Column) buildEncodings(boundaries []int) {
	lo := 0
	if n := len(c.encs); n > 0 {
		lo = c.encs[n-1].Hi
	}
	for _, end := range boundaries {
		if end <= lo || end > c.Len() {
			continue
		}
		if enc := encodeSegment(c, lo, end); enc != nil {
			c.encs = append(c.encs, EncSeg{Lo: lo, Hi: end, Enc: enc})
			encodedSegsBuilt.Add(1)
		} else {
			// Record the stats-only segment so coverage queries can still
			// answer Integral/MaxAbs questions from segment summaries.
			c.encs = append(c.encs, EncSeg{Lo: lo, Hi: end, Enc: statsOnlySegment(c, lo, end)})
		}
		lo = end
	}
}

// encodeSegment picks an encoding for rows [lo, hi) of c, or nil when
// neither RLE nor FOR pays off.
func encodeSegment(c *Column, lo, hi int) *Encoding {
	n := hi - lo
	if n < minEncodeRows {
		return nil
	}
	switch c.Kind {
	case KindFloat:
		return encodeFloatSeg(c.F[lo:hi])
	case KindInt:
		return encodeIntSeg(c.I[lo:hi])
	default:
		return encodeCodeSeg(c.Codes[lo:hi])
	}
}

// statsOnlySegment summarizes a segment that stays dense-only: Kind is
// EncNone but Integral/MaxAbs are still valid for guard checks.
func statsOnlySegment(c *Column, lo, hi int) *Encoding {
	e := &Encoding{Kind: EncNone, NumRows: hi - lo}
	switch c.Kind {
	case KindFloat:
		e.Integral, e.MaxAbs = floatSegStats(c.F[lo:hi])
	case KindInt:
		e.Integral = true
		for _, v := range c.I[lo:hi] {
			if a := math.Abs(float64(v)); a > e.MaxAbs {
				e.MaxAbs = a
			}
		}
	default:
		e.Integral = true
		for _, v := range c.Codes[lo:hi] {
			if a := math.Abs(float64(v)); a > e.MaxAbs {
				e.MaxAbs = a
			}
		}
	}
	return e
}

func floatSegStats(vals []float64) (integral bool, maxAbs float64) {
	integral = true
	for _, v := range vals {
		if math.IsNaN(v) {
			integral = false
			continue
		}
		if v != math.Trunc(v) || math.IsInf(v, 0) {
			integral = false
		}
		if a := math.Abs(v); a > maxAbs {
			maxAbs = a // +Inf lands here and trips the guards downstream
		}
	}
	return integral, maxAbs
}

func encodeFloatSeg(vals []float64) *Encoding {
	n := len(vals)
	runs := countRunsBits(vals)
	if runs > n/rleMaxRunFrac {
		return nil
	}
	e := &Encoding{Kind: EncRLE, NumRows: n,
		RunEnds: make([]int32, 0, runs), RunVals: make([]float64, 0, runs)}
	prev := math.Float64bits(vals[0])
	for i := 1; i <= n; i++ {
		if i == n || math.Float64bits(vals[i]) != prev {
			e.RunVals = append(e.RunVals, math.Float64frombits(prev))
			e.RunEnds = append(e.RunEnds, int32(i))
			if i < n {
				prev = math.Float64bits(vals[i])
			}
		}
	}
	e.Integral, e.MaxAbs = floatSegStats(vals)
	return e
}

func countRunsBits(vals []float64) int {
	runs := 1
	prev := math.Float64bits(vals[0])
	for _, v := range vals[1:] {
		if b := math.Float64bits(v); b != prev {
			runs++
			prev = b
		}
	}
	return runs
}

func encodeIntSeg(vals []int64) *Encoding {
	n := len(vals)
	runs := 1
	minV, maxV := vals[0], vals[0]
	prev := vals[0]
	for _, v := range vals[1:] {
		if v != prev {
			runs++
			prev = v
		}
		if v < minV {
			minV = v
		}
		if v > maxV {
			maxV = v
		}
	}
	maxAbs := math.Max(math.Abs(float64(minV)), math.Abs(float64(maxV)))
	if runs <= n/rleMaxRunFrac {
		e := &Encoding{Kind: EncRLE, NumRows: n, Integral: true, MaxAbs: maxAbs,
			RunEnds: make([]int32, 0, runs), RunValsI: make([]int64, 0, runs)}
		prev = vals[0]
		for i := 1; i <= n; i++ {
			if i == n || vals[i] != prev {
				e.RunValsI = append(e.RunValsI, prev)
				e.RunEnds = append(e.RunEnds, int32(i))
				if i < n {
					prev = vals[i]
				}
			}
		}
		return e
	}
	// FOR: pack as base + width-bit deltas when the range is narrow.
	// The delta computation must not overflow: guard the span first.
	span := uint64(maxV) - uint64(minV) // two's-complement span, exact
	width := bits.Len64(span)
	if width > forMaxWidth {
		return nil
	}
	if width == 0 {
		width = 1 // constant segment that somehow missed RLE (n small)
	}
	return &Encoding{Kind: EncFOR, NumRows: n, Integral: true, MaxAbs: maxAbs,
		ForBase: minV, ForWidth: uint8(width)}
}

// packFOR packs vals as width-bit deltas from base, value i at bit
// i·width: the words of a saved FOR block.
func packFOR(vals []int64, base int64, width int) []uint64 {
	packed := make([]uint64, (len(vals)*width+63)/64)
	for i, v := range vals {
		delta := uint64(v) - uint64(base)
		bitPos := i * width
		word, off := bitPos/64, uint(bitPos%64)
		packed[word] |= delta << off
		if off+uint(width) > 64 {
			packed[word+1] |= delta >> (64 - off)
		}
	}
	return packed
}

// unpackFOR is packFOR's inverse: it writes len(dst) values into dst.
func unpackFOR(packed []uint64, base int64, width int, dst []int64) {
	for i := range dst {
		bitPos := i * width
		word, off := bitPos/64, uint(bitPos%64)
		delta := packed[word] >> off
		if off+uint(width) > 64 {
			delta |= packed[word+1] << (64 - off)
		}
		delta &= (1 << uint(width)) - 1
		dst[i] = base + int64(delta)
	}
}

func encodeCodeSeg(vals []int32) *Encoding {
	n := len(vals)
	runs := 1
	prev := vals[0]
	maxAbs := math.Abs(float64(vals[0]))
	for _, v := range vals[1:] {
		if v != prev {
			runs++
			prev = v
		}
		if a := math.Abs(float64(v)); a > maxAbs {
			maxAbs = a
		}
	}
	if runs > n/rleMaxRunFrac {
		return nil
	}
	e := &Encoding{Kind: EncRLE, NumRows: n, Integral: true, MaxAbs: maxAbs,
		RunEnds: make([]int32, 0, runs), RunValsC: make([]int32, 0, runs)}
	prev = vals[0]
	for i := 1; i <= n; i++ {
		if i == n || vals[i] != prev {
			e.RunValsC = append(e.RunValsC, prev)
			e.RunEnds = append(e.RunEnds, int32(i))
			if i < n {
				prev = vals[i]
			}
		}
	}
	return e
}

// runIndexOf returns the index of the run containing segment-local row
// pos (binary search over the cumulative ends).
func (e *Encoding) runIndexOf(pos int) int {
	lo, hi := 0, len(e.RunEnds)
	for lo < hi {
		mid := (lo + hi) / 2
		if int(e.RunEnds[mid]) <= pos {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// RunCoverage reports whether column rows [lo, hi) are fully covered by
// RLE-encoded segments, along with the covering segments' combined
// Integral flag and max |value|. ok=false means at least one row falls
// in a dense-only, FOR, or unencoded range and a run-fold caller must
// use the dense path.
func (c *Column) RunCoverage(lo, hi int) (maxAbs float64, integral bool, ok bool) {
	if lo >= hi {
		return 0, true, true
	}
	integral = true
	pos := lo
	for _, s := range c.encs {
		if s.Hi <= pos {
			continue
		}
		if s.Lo > pos {
			return 0, false, false // gap
		}
		if s.Enc == nil || s.Enc.Kind != EncRLE {
			return 0, false, false
		}
		if s.Enc.MaxAbs > maxAbs {
			maxAbs = s.Enc.MaxAbs
		}
		integral = integral && s.Enc.Integral
		pos = s.Hi
		if pos >= hi {
			return maxAbs, integral, true
		}
	}
	return 0, false, false
}

// ForEachRun calls fn(value, count) for each constant run intersected
// with column rows [lo, hi), in row order, with values coerced to
// float64 (codes/ints exactly, per RLE construction). Callers must have
// verified RunCoverage(lo, hi) first.
func (c *Column) ForEachRun(lo, hi int, fn func(v float64, n int)) {
	for _, s := range c.encs {
		if s.Hi <= lo {
			continue
		}
		if s.Lo >= hi {
			return
		}
		e := s.Enc
		from, to := lo-s.Lo, hi-s.Lo // segment-local window
		if from < 0 {
			from = 0
		}
		if to > e.NumRows {
			to = e.NumRows
		}
		ri := e.runIndexOf(from)
		pos := from
		for pos < to {
			end := int(e.RunEnds[ri])
			if end > to {
				end = to
			}
			var v float64
			switch {
			case e.RunVals != nil:
				v = e.RunVals[ri]
			case e.RunValsI != nil:
				v = float64(e.RunValsI[ri])
			default:
				v = float64(e.RunValsC[ri])
			}
			fn(v, end-pos)
			pos = end
			ri++
		}
	}
}

// sliceEncs rebases the encodings of a parent column onto a [lo, hi)
// view: only segments fully inside the window carry over (a partial
// segment's runs would need re-clipping; the dense arrays still cover
// those rows), shifted into view coordinates.
func sliceEncs(encs []EncSeg, lo, hi int) []EncSeg {
	var out []EncSeg
	for _, s := range encs {
		if s.Lo >= lo && s.Hi <= hi {
			out = append(out, EncSeg{Lo: s.Lo - lo, Hi: s.Hi - lo, Enc: s.Enc})
		}
	}
	return out
}
