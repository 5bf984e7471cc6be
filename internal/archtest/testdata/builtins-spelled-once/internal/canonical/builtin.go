package canonical

var builtinDefs = [][]string{
	{"std", "stddev", "stddev_pop"},
}
