package server

import (
	"encoding/json"
	"net/http"
)

type ErrorBody struct{ Code, Error string }

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(v) //nolint:errcheck // client gone
}

func writeError(w http.ResponseWriter, msg string) {
	writeJSON(w, http.StatusBadRequest, ErrorBody{Code: "bad_request", Error: msg})
}
