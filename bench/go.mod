module critter/bench

go 1.24

require critter v0.0.0

replace critter => ../
