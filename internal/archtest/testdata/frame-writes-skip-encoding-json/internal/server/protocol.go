package server

import (
	enc "encoding/json"
	"io"
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
	payload, err := enc.Marshal(f) // want
	return append(b, payload...), err
}
