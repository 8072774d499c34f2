module smartmem/benchmark

go 1.24

require smartmem v0.0.0

replace smartmem => ../
