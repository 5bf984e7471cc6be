package server

import (
	"io"
	"strconv"
)

type Frame struct {
	Type  string
	Query int
}

func WriteFrame(w io.Writer, f *Frame) error {
	_, err := writeFrame(w, f)
	return err
}

func writeFrame(w io.Writer, f *Frame) (int, error) {
	buf, err := appendFrame(nil, f)
	if err != nil {
		return 0, err
	}
	return w.Write(buf)
}

func appendFrame(b []byte, f *Frame) ([]byte, error) {
	b = append(b, `{"type":`...)
	b = strconv.AppendQuote(b, f.Type)
	return append(b, '}'), nil
}

func endFrame(query int) *Frame { return &Frame{Type: "end", Query: query} }
