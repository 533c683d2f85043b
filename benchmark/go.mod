module opdelta/benchmark

go 1.22

require opdelta v0.0.0

replace opdelta => ../
