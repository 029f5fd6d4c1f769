module capnn/benchmark

go 1.22

require capnn v0.0.0

replace capnn => ../
