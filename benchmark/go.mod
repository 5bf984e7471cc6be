module sudaf/benchmark

go 1.22

require sudaf v0.0.0

replace sudaf => ../
