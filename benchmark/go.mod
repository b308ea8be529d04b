module zoomer/benchmark

go 1.22

require zoomer v0.0.0

replace zoomer => ../
