package canonical

var aliases = []string{"stddev_pop"}
