module dgr/benchmark

go 1.23

require dgr v0.0.0

replace dgr => ../
