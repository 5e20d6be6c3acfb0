module cloudviews/benchmark

go 1.22

require cloudviews v0.0.0

replace cloudviews => ../
