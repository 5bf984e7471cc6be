package server

import "net/http"

func push(w http.ResponseWriter, f *Frame) {
	buf, _ := appendFrame(nil, f) // want
	w.Write(buf)                  //nolint:errcheck
}
