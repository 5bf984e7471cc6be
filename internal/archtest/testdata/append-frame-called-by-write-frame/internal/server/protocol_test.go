package server

func encode(f *Frame) []byte {
	b, _ := appendFrame(nil, f)
	return b
}
