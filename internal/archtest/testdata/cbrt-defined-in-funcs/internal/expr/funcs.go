package expr

var Funcs = map[string]int{
	"cbrt": 1,
	"sqrt": 1,
}
