package server

import (
	"encoding/json"
	"net/http"
)

func stream(w http.ResponseWriter, rows [][]any) {
	enc := json.NewEncoder(w) // want
	for _, r := range rows {
		enc.Encode(r) //nolint:errcheck
	}
}
