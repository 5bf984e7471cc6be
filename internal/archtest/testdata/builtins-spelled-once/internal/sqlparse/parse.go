package sqlparse

func aggregate(name string) bool {
	switch name {
	case "stddev_pop": // want
		return true
	}
	return false
}
