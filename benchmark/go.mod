module matryoshka/benchmark

go 1.24

require matryoshka v0.0.0

replace matryoshka => ../
