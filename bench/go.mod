module pka/bench

go 1.22

require pka v0.0.0

replace pka => ../
