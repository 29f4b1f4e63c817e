module juggler/bench

go 1.22

require juggler v0.0.0

replace juggler => ../
