module natpeek/benchmarks

go 1.22

require natpeek v0.0.0

replace natpeek => ../
