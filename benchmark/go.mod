module github.com/amuse/smc/benchmark

go 1.22

require github.com/amuse/smc v0.0.0

replace github.com/amuse/smc => ../
