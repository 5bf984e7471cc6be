package core

func fingerprint(tables string) string {
	return "T[" + tables + "]" // want
}
