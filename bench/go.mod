module factorwindows/bench

go 1.24

require factorwindows v0.0.0

replace factorwindows => ../
