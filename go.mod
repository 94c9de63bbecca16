module prepuc

go 1.23
