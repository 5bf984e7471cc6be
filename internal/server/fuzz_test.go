package server

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"reflect"
	"testing"
)

// FuzzDecode throws arbitrary bytes at every wire decoder the server
// exposes to the network: the framed-stream reader (length prefixes,
// truncation, oversized declarations) and the three request-body
// decoders. The only acceptable outcomes are a value or an error —
// never a panic, and never an allocation driven by a declared length
// the bytes can't back (ReadFrame's bound is checked before the body
// is read). DecodeFrame must also agree with encoding/json plus the
// frame-type check on every input: both fail, or both give the same
// Frame. Wired into CI's fuzz-smoke job.
func FuzzDecode(f *testing.F) {
	// Well-formed seeds, one per decoder...
	f.Add([]byte(`{"type":"schema","columns":[{"name":"s","kind":"string"}]}`))
	f.Add([]byte(`{"type":"batch","rows":[["TN",1.5,"NaN"],[2,3,"+Inf"]]}`))
	f.Add([]byte(`{"type":"end","groups":4,"stats":{"wallMicros":12,"rowsScanned":100}}`))
	f.Add([]byte(`{"type":"error","code":"overloaded","error":"queue full"}`))
	f.Add([]byte(`{"sql":"SELECT avg(x) FROM t","mode":"share","batchRows":2}`))
	f.Add([]byte(`{"prepared":"p1","session":"s1"}`))
	f.Add([]byte(`{"session":"s1","sql":"SELECT qm(x) FROM t","mode":"baseline"}`))
	f.Add([]byte(`{"table":"t","columns":[{"name":"x","kind":"float","floats":[1,2]},{"name":"k","kind":"int","ints":[3,4]}]}`))
	// ...and framed streams: valid, torn, lying lengths, oversized.
	f.Add([]byte("25 {\"type\":\"end\",\"groups\":4}\n"))
	f.Add([]byte("25 {\"type\":\"end\",\"gro"))
	f.Add([]byte("3 {}\n"))
	f.Add([]byte("999999999 {}\n"))
	f.Add([]byte("1x {}\n"))
	f.Add([]byte(" "))
	f.Add([]byte("18 {\"type\":\"schema\"}\n18 {\"type\":\"schema\"}\n"))
	// Frames outside the encoder's compact form, which DecodeFrame hands
	// to encoding/json: whitespace, escapes, e-notation, other key
	// orders, unknown, duplicate and differently cased keys, nulls.
	f.Add([]byte(` {"type": "end", "groups": 4}` + "\n"))
	f.Add([]byte(`{"type":"error","code":"internal","error":"a\"b\u00e9\n<\u2028"}`))
	f.Add([]byte(`{"type":"batch","rows":[[1e-7,2E+3,-0.5e1,1e400,-0,0.1]]}`))
	f.Add([]byte(`{"groups":4,"type":"end"}`))
	f.Add([]byte(`{"type":"end","extra":[1,{"x":null}],"groups":2}`))
	f.Add([]byte(`{"type":"end","type":"batch","Rows":[[1]]}`))
	f.Add([]byte(`{"type":"end","stats":null,"events":[],"fullCacheHit":false}`))
	f.Add([]byte(`{"type":"batch","rows":[[],[true,null,"x"]],"window":{"seq":1,"epoch":2,"firstRow":0,"lastRow":9}}`))
	f.Add([]byte(`{"type":"end","groups":01,"query":1.0}`))
	f.Add([]byte(`{"type":"end","query":99999999999999999999}`))
	f.Add([]byte("{\"type\":\"schema\",\"columns\":[{\"name\":\"\xff\",\"kind\":\"int\"}]}"))

	f.Fuzz(func(t *testing.T, data []byte) {
		got, err := DecodeFrame(data)
		var want Frame
		werr := json.Unmarshal(data, &want)
		if werr == nil {
			switch want.Type {
			case FrameSchema, FrameBatch, FrameEnd, FrameError:
			default:
				werr = fmt.Errorf("unknown frame type %q", want.Type)
			}
		}
		if (err == nil) != (werr == nil) {
			t.Fatalf("DecodeFrame err %v, encoding/json err %v", err, werr)
		}
		if err == nil && !reflect.DeepEqual(got, &want) {
			t.Fatalf("DecodeFrame read\n %+v\nencoding/json read\n %+v", got, &want)
		}
		DecodeQueryRequest(data)   //nolint:errcheck
		DecodePrepareRequest(data) //nolint:errcheck
		if a, err := DecodeAppendRequest(data); err == nil {
			// A decodable append must also materialize consistently.
			if _, err := a.ToTable(); err != nil {
				t.Fatalf("DecodeAppendRequest accepted what ToTable rejects: %v", err)
			}
		}
		br := bufio.NewReader(bytes.NewReader(data))
		for i := 0; i < 4; i++ { // bounded: a stream is many frames
			if _, err := ReadFrame(br, 1<<16); err != nil {
				break
			}
		}
		ModeFromString(string(data))
	})
}
