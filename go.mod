module incdata

go 1.24
