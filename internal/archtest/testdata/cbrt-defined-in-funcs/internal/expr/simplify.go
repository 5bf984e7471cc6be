package expr

func algebraic(name string) bool { return name == "cbrt" }
