module scidb/bench

go 1.24

require scidb v0.0.0

replace scidb => ../
