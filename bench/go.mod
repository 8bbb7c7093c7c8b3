module fluxion/bench

go 1.22

require fluxion v0.0.0

replace fluxion => ../
