package server

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"strconv"
	"testing"
	"time"

	"sudaf/internal/core"
	"sudaf/internal/storage"
)

// Values the encoder must spell exactly as encoding/json does.
var (
	edgeFloats = []float64{
		0, math.Copysign(0, -1), 1, -1.5, 1e-7, -1e-7, 1e-6, 9.999999e-7,
		1e-9, 1.5e-300, 1e20, 1e21, -1e21, 123456789e13, 5e-324,
		math.MaxFloat64, -math.MaxFloat64, 1.0 / 3, 1 << 53, 0.1,
	}
	edgeInts = []int64{
		0, 1, -1, 1<<53 - 1, 1 << 53, 1<<53 + 1, -(1<<53 - 1), -(1 << 53),
		-(1<<53 + 1), math.MaxInt64, math.MinInt64,
	}
	edgeStrings = []string{
		"", "TN", "<script>&amp;</script>", "ctl\x00\x01\x07\x1f\b\f\n\r\t\x7f",
		"bad\xff\xfeutf8\xc3", "line\u2028sep\u2029end", `quote"back\slash/`,
		"héllo wörld", "日本語", "\xed\xa0\x80", "NaN", "+Inf",
	}
	nonFinite = []float64{math.NaN(), math.Inf(1), math.Inf(-1)}
)

func pick[T any](rng *rand.Rand, xs []T) T { return xs[rng.Intn(len(xs))] }

func randFloat(rng *rand.Rand) float64 {
	switch rng.Intn(4) {
	case 0:
		return pick(rng, edgeFloats)
	case 1:
		if v := math.Float64frombits(rng.Uint64()); !math.IsNaN(v) && !math.IsInf(v, 0) {
			return v
		}
		return 0
	case 2:
		return float64(rng.Intn(2000) - 1000)
	}
	return rng.NormFloat64() * math.Pow(10, float64(rng.Intn(50)-25))
}

func randInt(rng *rand.Rand) int64 {
	if rng.Intn(2) == 0 {
		return pick(rng, edgeInts)
	}
	return rng.Int63n(1<<40) - 1<<39
}

func randString(rng *rand.Rand) string {
	if rng.Intn(3) > 0 {
		return pick(rng, edgeStrings)
	}
	b := make([]byte, rng.Intn(12))
	for i := range b {
		b[i] = byte(rng.Intn(256))
	}
	return string(b)
}

// randTable builds a batch of int, float and string columns, the float
// ones carrying non-finite values too.
func randTable(rng *rand.Rand) *storage.Table {
	kinds := []storage.Kind{storage.KindInt, storage.KindFloat, storage.KindString}
	cols := make([]*storage.Column, 1+rng.Intn(4))
	for j := range cols {
		cols[j] = storage.NewColumn(fmt.Sprintf("c%d", j), pick(rng, kinds))
	}
	for i, n := 0, rng.Intn(6); i < n; i++ {
		for _, c := range cols {
			switch c.Kind {
			case storage.KindInt:
				c.AppendInt(randInt(rng))
			case storage.KindString:
				c.AppendString(randString(rng))
			default:
				v := randFloat(rng)
				if rng.Intn(5) == 0 {
					v = pick(rng, nonFinite)
				}
				c.AppendFloat(v)
			}
		}
	}
	return storage.NewTable("batch", cols...)
}

// randRows builds hand-made cells of every shape appendCell takes.
func randRows(rng *rand.Rand) [][]any {
	rows := make([][]any, rng.Intn(4))
	for i := range rows {
		if rng.Intn(10) == 0 {
			continue // a nil row
		}
		rows[i] = make([]any, rng.Intn(4))
		for j := range rows[i] {
			switch rng.Intn(5) {
			case 0:
				rows[i][j] = randInt(rng)
			case 1:
				rows[i][j] = int(randInt(rng))
			case 2:
				rows[i][j] = randString(rng)
			default:
				rows[i][j] = randFloat(rng)
			}
		}
	}
	return rows
}

// randFrame draws one frame of a random type, tagged or not.
func randFrame(rng *rand.Rand) *Frame {
	var f *Frame
	switch rng.Intn(6) {
	case 0:
		t := randTable(rng)
		f = SchemaFrame(t)
		for i := range f.Columns {
			f.Columns[i].Name = randString(rng)
		}
	case 1:
		f = BatchFrame(randTable(rng))
	case 2:
		f = &Frame{Type: FrameBatch, Rows: randRows(rng)}
	case 3:
		res := &core.Result{Groups: rng.Intn(3), FullCacheHit: rng.Intn(2) == 0}
		if rng.Intn(2) == 0 {
			res.UsedView = randString(rng)
		}
		for i, n := 0, rng.Intn(3); i < n; i++ {
			res.Events = append(res.Events, randString(rng))
		}
		res.Stats.WallTime = time.Duration(rng.Intn(3)) * time.Millisecond
		res.Stats.QueueWait = time.Duration(rng.Intn(2)) * time.Millisecond
		res.Stats.RowsScanned = rng.Intn(3) * 1000
		res.Stats.CacheExactHits = rng.Intn(2)
		res.Stats.CacheSharedHits = rng.Intn(2)
		res.Stats.CacheSignHits = rng.Intn(2)
		res.Stats.CacheMisses = rng.Intn(2)
		f = EndFrame(res)
		if rng.Intn(4) == 0 {
			f.Stats = nil
		}
	case 4:
		f = ErrorFrame(fmt.Errorf("%s", randString(rng)))
		if rng.Intn(4) == 0 {
			f.Code = randString(rng)
		}
	default:
		f = subscribeFrame(&core.WindowResult{
			Table: randTable(rng), Seq: randInt(rng), Epoch: randInt(rng),
			FirstRow: int(randInt(rng)), LastRow: int(randInt(rng)), NumericFaults: rng.Intn(2),
		})
	}
	if rng.Intn(2) == 0 {
		f.Query = int(randInt(rng))
	}
	return f
}

// reference is what json.Marshal gives for f, with a BatchFrame's table
// boxed into Rows the way BatchFrame once did.
func reference(f *Frame) ([]byte, error) {
	ref := *f
	if t := f.table; t != nil {
		ref.Rows = make([][]any, t.NumRows())
		for i := range ref.Rows {
			row := make([]any, len(t.Cols))
			for j, c := range t.Cols {
				switch c.Kind {
				case storage.KindString:
					row[j] = c.StringAt(i)
				case storage.KindInt:
					row[j] = c.AsInt(i)
				default:
					if v := c.AsFloat(i); math.IsNaN(v) || math.IsInf(v, 0) {
						row[j] = nonFiniteString(v)
					} else {
						row[j] = v
					}
				}
			}
			ref.Rows[i] = row
		}
	}
	return json.Marshal(&ref)
}

// payload runs WriteFrame and checks its framing, returning the JSON.
func payload(t *testing.T, f *Frame) ([]byte, error) {
	t.Helper()
	var buf bytes.Buffer
	if err := WriteFrame(&buf, f); err != nil {
		return nil, err
	}
	line := buf.Bytes()
	sp := bytes.IndexByte(line, ' ')
	n, err := strconv.Atoi(string(line[:max(sp, 0)]))
	if sp <= 0 || err != nil || n != len(line)-sp-2 || line[len(line)-1] != '\n' {
		t.Fatalf("bad framing %q", line)
	}
	return line[sp+1 : len(line)-1], nil
}

// TestFrameEncodingMatchesJSON pins the wire bytes: WriteFrame's payload
// equals json.Marshal of the same frame for random frames of every type,
// and both refuse a non-finite float cell.
func TestFrameEncodingMatchesJSON(t *testing.T) {
	rng := rand.New(rand.NewSource(35))
	for i := 0; i < 5000; i++ {
		f := randFrame(rng)
		want, werr := reference(f)
		got, gerr := payload(t, f)
		if (werr == nil) != (gerr == nil) {
			t.Fatalf("frame %+v: json.Marshal err %v, WriteFrame err %v", f, werr, gerr)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("frame %d differs from json.Marshal:\n got %s\nwant %s", i, got, want)
		}
	}
	for _, v := range nonFinite {
		f := &Frame{Type: FrameBatch, Rows: [][]any{{v}}}
		if _, err := json.Marshal(f); err == nil {
			t.Fatal("json.Marshal accepted a non-finite cell")
		}
		if _, err := payload(t, f); err == nil {
			t.Errorf("WriteFrame accepted the cell %v", v)
		}
	}
	// Every edge value, in one frame each, so none depends on the draw.
	for _, v := range edgeFloats {
		checkFrame(t, &Frame{Type: FrameBatch, Rows: [][]any{{v}}})
	}
	for _, v := range edgeInts {
		checkFrame(t, &Frame{Type: FrameBatch, Rows: [][]any{{v}}})
	}
	for _, s := range edgeStrings {
		checkFrame(t, &Frame{Type: FrameError, Code: CodeInternal, Error: s})
	}
}

func checkFrame(t *testing.T, f *Frame) {
	t.Helper()
	want, err := reference(f)
	if err != nil {
		t.Fatal(err)
	}
	if got, _ := payload(t, f); !bytes.Equal(got, want) {
		t.Errorf("got %s, want %s", got, want)
	}
}

// TestCompactDecodeReadsEncoderOutput: the decoder's one-pass path takes
// every payload the encoder writes without a string escape, and reads it
// exactly as encoding/json does. Escaped strings go to encoding/json.
func TestCompactDecodeReadsEncoderOutput(t *testing.T) {
	rng := rand.New(rand.NewSource(36))
	fast := 0
	for i := 0; i < 5000; i++ {
		f := randFrame(rng)
		data, err := payload(t, f)
		if err != nil {
			continue // a hand-built non-finite cell
		}
		var want Frame
		if err := json.Unmarshal(data, &want); err != nil {
			t.Fatalf("encoder wrote invalid JSON %s: %v", data, err)
		}
		got, ok := decodeCompact(data)
		if !ok {
			if !bytes.Contains(data, []byte{'\\'}) && !hasNilRow(f.Rows) {
				t.Fatalf("compact path declined an unescaped payload %s", data)
			}
			continue
		}
		fast++
		if !reflect.DeepEqual(got, &want) {
			t.Fatalf("compact path misread %s:\n got %+v\nwant %+v", data, got, &want)
		}
	}
	if fast < 1000 {
		t.Errorf("only %d of 5000 payloads took the compact path", fast)
	}
}

// hasNilRow reports whether a hand-built frame holds a null row, which
// the compact decoder leaves to encoding/json.
func hasNilRow(rows [][]any) bool {
	for _, row := range rows {
		if row == nil {
			return true
		}
	}
	return false
}

// TestDecodedRowsAreCapped: a decoded batch's rows share one cell
// slice, each capped at its own length, so appending to a row never
// overwrites the next.
func TestDecodedRowsAreCapped(t *testing.T) {
	f, err := DecodeFrame([]byte(`{"type":"batch","rows":[[1,"a"],[2,"b"],[3,"NaN"]]}`))
	if err != nil {
		t.Fatal(err)
	}
	for i, row := range f.Rows {
		if len(row) != 2 || cap(row) != 2 {
			t.Fatalf("row %d: len %d cap %d, want 2 and 2", i, len(row), cap(row))
		}
	}
	_ = append(f.Rows[0], "x")
	if f.Rows[1][0] != 2.0 {
		t.Errorf("appending to row 0 changed row 1 to %v", f.Rows[1])
	}
	if v, ok := CellFloat(f.Rows[2][1]); !ok || !math.IsNaN(v) {
		t.Errorf("NaN cell decoded as %v", f.Rows[2][1])
	}
}

// benchFrames returns the two streams BenchmarkFrameEncode/Decode time:
// a 200-row (int, float) region batch, and a 1-row prepared result
// (schema, batch, end).
func benchFrames() map[string][]*Frame {
	region := storage.NewTable("r",
		storage.NewColumn("square_id", storage.KindInt),
		storage.NewColumn("avg_traffic", storage.KindFloat))
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 200; i++ {
		region.Cols[0].AppendInt(int64(i))
		region.Cols[1].AppendFloat(rng.ExpFloat64() * 137.25)
	}
	one := storage.NewTable("p", storage.NewColumn("qm", storage.KindFloat))
	one.Cols[0].AppendFloat(42.123456789)
	end := EndFrame(&core.Result{Groups: 1, FullCacheHit: true})
	end.Stats.WallMicros, end.Stats.CacheExactHits = 17, 1
	return map[string][]*Frame{
		"region200": {BatchFrame(region)},
		"prepared1": {SchemaFrame(one), BatchFrame(one), end},
	}
}

var sinkFrame *Frame

func BenchmarkFrameEncode(b *testing.B) {
	for name, frames := range benchFrames() {
		b.Run(name, func(b *testing.B) {
			var buf bytes.Buffer
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				buf.Reset()
				for _, f := range frames {
					if err := WriteFrame(&buf, f); err != nil {
						b.Fatal(err)
					}
				}
			}
		})
	}
}

func BenchmarkFrameDecode(b *testing.B) {
	for name, frames := range benchFrames() {
		var wire bytes.Buffer
		for _, f := range frames {
			if err := WriteFrame(&wire, f); err != nil {
				b.Fatal(err)
			}
		}
		b.Run(name, func(b *testing.B) {
			rd := bytes.NewReader(nil)
			br := bufio.NewReader(rd)
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				rd.Reset(wire.Bytes())
				br.Reset(rd)
				for range frames {
					f, err := ReadFrame(br, 0)
					if err != nil {
						b.Fatal(err)
					}
					sinkFrame = f
				}
			}
		})
	}
}
