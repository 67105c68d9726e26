module unreachfix

go 1.22
