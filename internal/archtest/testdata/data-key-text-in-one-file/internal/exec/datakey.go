package exec

type DataKey struct{ tables, frame string }

func (k *DataKey) String() string {
	s := "T[" + k.tables + "]"
	if k.frame != "" {
		s += "|W[" + k.frame + "]"
	}
	return s
}
