package exec

var golden = "T[sales@3]|W[ROWS 3 PRECEDING]"
