package exec

var names = []string{"cbrt"}
